"""The README's shell examples stay in step with the CLI: every `asc ...`
command in its `sh` blocks parses, so a removed option cannot linger there."""

import re
import shlex
from pathlib import Path

import pytest

from asc.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_asc_commands() -> list:
    """Arguments of each `asc` command in the README's `sh` blocks, with
    backslash continuations joined."""
    text = README.read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.MULTILINE | re.DOTALL):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["asc"]:
                commands.append(words[1:])
    return commands


def test_readme_shows_every_pipeline_command():
    shown = {argv[0] for argv in readme_asc_commands()}
    assert {"synth", "gen-data", "analyze", "plan", "prune", "compare"} <= shown


@pytest.mark.parametrize("argv", readme_asc_commands(), ids=lambda argv: argv[0])
def test_readme_command_parses(argv):
    build_parser().parse_args(argv)
