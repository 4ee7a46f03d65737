"""The contract of the package's record types.

Problems, configurations and results are immutable named tuples: they
compare and hash by value, print as ``Name(field=value, ...)`` (error
messages embed that text), and the validated ones reject bad input however
they are built, including through ``_make``, ``_replace``, ``pickle`` and
``copy.deepcopy``.
"""

import copy
import pickle

import pytest

from bosonbounds import BoundReport, PhiResult, PhysicalSystem, Potential, PotentialKind, Problem
from bosonbounds.cli import SweepConfig
from bosonbounds.numerics import MinimizeResult

KRATZER = Potential(PotentialKind.KRATZER, 1.0, 1.0)

# one instance of each type and its repr, which error messages embed
RECORDS = [
    (KRATZER, "Potential(kind=<PotentialKind.KRATZER: 'kratzer'>, lam=1.0, mu=1.0)"),
    (
        Problem(KRATZER, 3, 2.0),
        "Problem(potential=Potential(kind=<PotentialKind.KRATZER: 'kratzer'>, lam=1.0, mu=1.0), d=3, v=2.0)",
    ),
    (PhysicalSystem(N=2, V0=1.0), "PhysicalSystem(N=2, V0=1.0, m=1.0, a=1.0, hbar=1.0)"),
    (
        SweepConfig(Potential.oscillator(2.0, 0.5), 3, 2.0, 8.0, 3),
        "SweepConfig(potential=Potential(kind=<PotentialKind.SOFT_CORE_OSCILLATOR: 'oscillator'>, "
        "lam=2.0, mu=0.5), d=3, v_min=2.0, v_max=8.0, steps=3, include_phi=False)",
    ),
    (MinimizeResult(1.5, -2.0, True, 7), "MinimizeResult(x_min=1.5, f_min=-2.0, converged=True, iterations=7)"),
    (PhiResult(-0.5, 2.0, 1.25, True), "PhiResult(energy=-0.5, q_opt=2.0, b_opt=1.25, converged=True)"),
    (
        BoundReport(1.0, 2.0, 0.5, None, None),
        "BoundReport(lower=1.0, upper_gaussian=2.0, sigma2=0.5, asymptote_lower=None, "
        "asymptote_upper=None, upper_phi=None, q_opt=None, b_opt=None)",
    ),
]
RECORD_IDS = [type(record).__name__ for record, _ in RECORDS]

# a valid instance of each validated type and one field value it rejects
VALIDATED = [
    (KRATZER, "lam", -1.0),
    (Problem(KRATZER, 3, 2.0), "v", -1.0),
    (PhysicalSystem(N=2, V0=1.0), "V0", -1.0),
    (SweepConfig(KRATZER, 3, 2.0, 8.0, 3), "steps", 1),
]
VALIDATED_IDS = [type(record).__name__ for record, _, _ in VALIDATED]


@pytest.mark.parametrize("record, text", RECORDS, ids=RECORD_IDS)
class TestContract:
    def test_repr(self, record, text):
        assert repr(record) == text

    def test_immutable(self, record, text):
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], record[0])
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_equal_and_hash_by_value(self, record, text):
        twin = type(record)(*record)
        assert twin is not record
        assert twin == record and hash(twin) == hash(record)
        assert twin == tuple(record) and twin._asdict() == record._asdict()
        other = record._replace(**{record._fields[-1]: 3.0})
        assert other != record

    def test_pickle_round_trip(self, record, text):
        assert pickle.loads(pickle.dumps(record)) == record
        assert copy.deepcopy(record) == record


@pytest.mark.parametrize("record, field, bad", VALIDATED, ids=VALIDATED_IDS)
class TestValidation:
    def bad_fields(self, record, field, bad):
        return [bad if name == field else value for name, value in zip(record._fields, record)]

    def test_positional(self, record, field, bad):
        with pytest.raises(ValueError, match=field):
            type(record)(*self.bad_fields(record, field, bad))

    def test_keyword(self, record, field, bad):
        with pytest.raises(ValueError, match=field):
            type(record)(**dict(zip(record._fields, self.bad_fields(record, field, bad))))

    def test_make(self, record, field, bad):
        assert type(record)._make(record) == record
        with pytest.raises(ValueError, match=field):
            type(record)._make(self.bad_fields(record, field, bad))

    def test_replace(self, record, field, bad):
        with pytest.raises(ValueError, match=field):
            record._replace(**{field: bad})

    @pytest.mark.parametrize(
        "round_trip", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy], ids=["pickle", "deepcopy"]
    )
    def test_round_trip(self, record, field, bad, round_trip):
        # a tuple built around the checks is checked again when it is rebuilt
        forged = tuple.__new__(type(record), self.bad_fields(record, field, bad))
        with pytest.raises(ValueError, match=field):
            round_trip(forged)
