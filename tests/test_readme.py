"""The README's commands track the code: every ``blockcomp`` line in its
code blocks parses, and every script it names exists."""

import re
import shlex
from pathlib import Path

from blockcomp.cli import build_parser

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
