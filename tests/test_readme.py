"""The README's command-line examples, replayed through the CLI.

Every ``$ bosonbounds ...`` line in a fenced block of README.md is run
through ``main``; the lines after it, up to a blank line or the end of the
block, are its expected output.  Output is compared byte for byte, apart
from the numbers that come out of the q search: those go through the
platform C library's exp, pow and gamma, whose last bits may differ on
another system, and a last-bit change can move where the search stops, so
each is held to the tolerance the rest of the suite pins it to.
"""

import pathlib
import re
import shlex

import pytest

from bosonbounds.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

# text in front of a number from the q search -> how far it may move
_SEARCHED = [
    (r"Fphi upper +: ", {"rel": 1e-8}),
    (r"q_opt +: ", {"abs": 2e-5}),
    (r"b_opt +: ", {"rel": 1e-5}),
    (r"q_opt\(v=[^)]*\): observed=", {"abs": 2e-5}),
    (r"E\((?:observed|expected)\)=", {"rel": 1e-8}),
]


def readme_examples():
    """(command line, expected output) for every example in the README."""
    examples = []
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    for block in blocks:
        for chunk in block.split("\n\n"):
            if chunk.startswith("$ bosonbounds "):
                command, _, output = chunk.partition("\n")
                examples.append((command[2:], output.rstrip("\n") + "\n"))
    return examples


EXAMPLES = readme_examples()


def test_every_subcommand_has_an_example():
    assert {command.split()[1] for command, _ in EXAMPLES} == {"bounds", "sweep", "physical", "verify"}


@pytest.mark.parametrize("command, expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_example_output(capsys, command, expected):
    code = main(shlex.split(command)[1:])
    actual = capsys.readouterr().out
    # verify exits 1 exactly when it reports a failed check
    assert code == (1 if expected.rstrip().endswith("check(s) failed") else 0)
    for prefix, tolerance in _SEARCHED:
        pattern = re.compile(f"({prefix})(\\S+)")
        want = [float(m.group(2)) for m in pattern.finditer(expected)]
        got = [float(m.group(2)) for m in pattern.finditer(actual)]
        assert got == pytest.approx(want, **tolerance), prefix
        expected = pattern.sub(r"\1<searched>", expected)
        actual = pattern.sub(r"\1<searched>", actual)
    assert actual == expected
