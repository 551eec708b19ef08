"""The command examples in README.md print what the README shows.

Each ``$ ksumlab ...`` line runs through ``cli.main``; the lines under it,
up to the next blank line, comment, command or fence, are its expected
stdout, where a line ``...`` stands for any run of lines.
"""

import shlex
from pathlib import Path

import pytest

from ksumlab.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_examples() -> list[tuple[str, list[str]]]:
    examples: list[tuple[str, list[str]]] = []
    expected = None  # the output lines of the example being read, if any
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("$ ksumlab "):
            expected = []
            examples.append((line[len("$ ksumlab ") :], expected))
        elif expected is not None and line and not line.startswith(("#", "$", "```")):
            expected.append(line)
        else:
            expected = None
    return examples


EXAMPLES = readme_examples()


def matches(expected: list[str], actual: list[str]) -> bool:
    if not expected:
        return not actual
    if expected[0] == "...":
        return any(matches(expected[1:], actual[i:]) for i in range(len(actual) + 1))
    return bool(actual) and expected[0] == actual[0] and matches(expected[1:], actual[1:])


def test_readme_has_examples():
    assert len(EXAMPLES) >= 6 and all(expected for _, expected in EXAMPLES)


@pytest.mark.parametrize("command, expected", EXAMPLES, ids=[command for command, _ in EXAMPLES])
def test_readme_example_output(capsys, command, expected):
    main(shlex.split(command))
    actual = capsys.readouterr().out.splitlines()
    assert matches(expected, actual), "\n".join(actual)


def test_ellipsis_matches_any_run_of_lines():
    assert matches(["a", "...", "z"], ["a", "z"])
    assert matches(["a", "...", "z"], ["a", "b", "c", "z"])
    assert not matches(["a", "...", "z"], ["a", "b"])
    assert not matches(["a"], ["a", "b"])
