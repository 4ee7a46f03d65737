"""The package namespace re-exports exactly the submodules' public names."""

import bosonbounds
from bosonbounds import closed_bounds, collective_field, model, radial_oracle


def test_package_all_is_the_union_of_the_submodules():
    submodules = (model, closed_bounds, collective_field, radial_oracle)
    exported = set(bosonbounds.__all__) - {"__version__"}
    assert exported == set().union(*(module.__all__ for module in submodules))
    assert len(bosonbounds.__all__) == len(set(bosonbounds.__all__))
    for name in bosonbounds.__all__:
        getattr(bosonbounds, name)
