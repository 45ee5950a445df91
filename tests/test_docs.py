"""The README's examples stay in step with the code: every `asc ...` command
in its `sh` blocks parses, so a removed option cannot linger there, every
Python block runs and prints what it says and imports from `asc` alone, and
the plan-file keys it lists are `PrunePlan`'s fields, and every public name
is shown in its code."""

import ast
import re
import shlex
from dataclasses import fields
from pathlib import Path

import pytest

import asc
from asc.cli import build_parser
from asc.planner import PrunePlan

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


def readme_python_blocks() -> list:
    text = README.read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```", text, re.MULTILINE | re.DOTALL)


def test_readme_library_example_runs(capsys):
    """Each `python` block runs on its own and prints what the `# prints:`
    comment on its last line says."""
    blocks = readme_python_blocks()
    assert len(blocks) >= 2
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
        expected = re.search(r"# prints: (.*)\n\Z", block).group(1)
        assert capsys.readouterr().out == expected + "\n"


def test_readme_imports_only_the_public_package():
    """The examples use what `asc` exports, never a submodule's internals."""
    for block in readme_python_blocks():
        nodes = list(ast.walk(ast.parse(block)))
        modules = [alias.name for node in nodes if isinstance(node, ast.Import)
                   for alias in node.names]
        modules += [node.module for node in nodes if isinstance(node, ast.ImportFrom)]
        assert modules and set(modules) == {"asc"}, modules


def test_readme_plan_keys_are_prune_plan_fields():
    """write_plan and load_plan take a plan file's keys from PrunePlan, so
    the README's list follows the dataclass; `seed?` is the optional key."""
    text = README.read_text(encoding="utf-8")
    listed = re.search(r"\*\*Plan JSON\*\*: `\{(.*?)\}`", text, re.DOTALL).group(1)
    keys = [key.strip() for key in listed.split(",")]
    assert keys == ["version", *(f"{f.name}?" if f.name == "seed" else f.name
                                 for f in fields(PrunePlan))]


def test_readme_names_every_public_name():
    """Each name in `asc.__all__` appears in the README's code: a fenced
    block or an inline `code` span."""
    text = README.read_text(encoding="utf-8")
    code = "\n".join(re.findall(r"^```\w*\n(.*?)^```", text, re.MULTILINE | re.DOTALL)
                     + re.findall(r"`([^`\n]+)`", text))
    assert [name for name in asc.__all__ if not re.search(rf"\b{name}\b", code)] == []
