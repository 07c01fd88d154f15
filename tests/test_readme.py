"""The README tracks the code: every ``blockcomp`` line in its code blocks
parses, every script and identifier it names exists, and the caps it states
are the constants' values."""

import re
import shlex
from pathlib import Path

import pytest

from blockcomp.approxdeg import LP_ARITY_CAP
from blockcomp.cli import build_parser
from blockcomp.specdisc import PAIR_SIDE_CAP

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def code_block_lines(text):
    """The lines inside the ``` fenced blocks of a markdown text."""
    lines, inside = [], False
    for line in text.splitlines():
        if line.startswith("```"):
            inside = not inside
        elif inside:
            lines.append(line)
    return lines


def test_blockcomp_lines_parse():
    commands = [line.split("#", 1)[0] for line in code_block_lines(README)
                if line.startswith("blockcomp ")]
    assert len(commands) >= 9
    for command in commands:
        args = build_parser().parse_args(shlex.split(command)[1:])
        assert callable(args.fn), command


def test_named_scripts_exist():
    scripts = set(re.findall(r"scripts/\w+\.py", README))
    assert scripts
    for script in scripts:
        assert (ROOT / script).is_file(), script


def test_named_identifiers_exist():
    # every snake_case token in an inline code span of the prose (fenced
    # blocks dropped) is a name in the library or scripts, or a file stem
    prose = re.sub(r"^```.*?^```", "", README, flags=re.S | re.M)
    tokens = {token for span in re.findall(r"`([^`]+)`", prose)
              for token in re.findall(r"\b[a-z][a-z0-9]*(?:_[a-z0-9]+)+\b", span)}
    assert tokens
    code = "".join(path.read_text() for pattern in ("src/blockcomp/*.py", "scripts/*.py")
                   for path in ROOT.glob(pattern))
    stems = {path.stem for folder in ("scripts", "tests")
             for path in (ROOT / folder).iterdir() if path.is_file()}
    missing = sorted(t for t in tokens if t not in code and t not in stems)
    assert not missing, missing


@pytest.mark.parametrize("name,value", [("LP_ARITY_CAP", LP_ARITY_CAP),
                                        ("PAIR_SIDE_CAP", PAIR_SIDE_CAP)])
def test_stated_caps_match_constants(name, value):
    text = " ".join(README.split())
    stated = re.findall(rf"capped at (\d+)(?: bits)? \(`{name}`\)", text)
    assert stated == [str(value)], name
