"""`asc` builds only the invoked command's parser, and that parser behaves
exactly like the full one: the same help, usage and error text, the same
exit codes, and the same namespace for a successful parse."""

import argparse
import os
import subprocess
import sys

import pytest

from asc import cli
from asc.cli import build_parser

# a complete, valid argv for each command; no file is read while parsing
VALID = {
    "synth": ["synth", "--layers", "2", "--hidden-dim", "8", "--heads", "2", "--ffn-dim", "16",
              "--vocab", "20", "--seed", "0", "--out", "m.ascm"],
    "gen-data": ["gen-data", "--sequences", "2", "--min-len", "1", "--max-len", "3",
                 "--vocab", "10", "--seed", "0", "--out", "d.txt"],
    "analyze": ["analyze", "--model", "m.ascm", "--data", "d.txt", "--workers", "2",
                "--out", "s.csv"],
    "plan": ["plan", "--sim", "s.csv", "--threshold", "0.9", "--out", "p.json"],
    "prune": ["prune", "--model", "m.ascm", "--plan", "p.json", "--out", "o.ascm"],
    "random-prune": ["random-prune", "--model", "m.ascm", "--count", "1", "--seed", "0",
                     "--out", "o.ascm"],
    "render": ["render", "--sim", "s.csv", "--out", "h.pgm"],
    "compare": ["compare", "--model-a", "a.ascm", "--model-b", "b.ascm", "--data", "d.txt"],
    "forward": ["forward", "--model", "m.ascm", "--data", "d.txt", "--out", "e.csv"],
}
# a numeric flag of each command that has one
NUMERIC = {"synth": "--layers", "gen-data": "--max-len", "analyze": "--workers",
           "plan": "--threshold", "random-prune": "--count"}


def without(argv, flag):
    i = argv.index(flag)
    return argv[:i] + argv[i + 2:]


def with_value(argv, flag, value):
    i = argv.index(flag)
    return argv[:i + 1] + [value] + argv[i + 2:]


def abbreviated(argv):
    """`argv` with its last flag cut by one letter (`--mode` for `--model`)."""
    i = max(i for i, arg in enumerate(argv) if arg.startswith("--"))
    return argv[:i] + [argv[i][:-1]] + argv[i + 1:]


def cases():
    yield "asc", []
    yield "asc -h", ["-h"]
    yield "asc frobnicate", ["frobnicate"]
    yield "asc --help plan", ["--help", "plan"]
    for name, argv in VALID.items():
        yield f"{name} -h", [name, "-h"]
        yield f"{name} --help with flags", argv + ["--help"]
        yield f"{name} no flags", [name]
        yield f"{name} missing last flag", argv[:-2]
        yield f"{name} missing first flag", without(argv, argv[1])
        if name in NUMERIC:
            bad = "x1" if NUMERIC[name] != "--threshold" else "0.9f"
            yield f"{name} bad number", with_value(argv, NUMERIC[name], bad)
        yield f"{name} abbreviated flag", abbreviated(argv)
        yield f"{name} extra positional", argv + ["extra"]
        yield f"{name} unknown flag", argv + ["--frobnicate", "1"]
        yield f"{name} valid", argv


CASES = dict(cases())


def parse(parser, argv, capsys):
    """(exit code or None, stdout, stderr, namespace or None) of one parse."""
    try:
        namespace, code = parser.parse_args(argv), None
    except SystemExit as exc:
        namespace, code = None, exc.code
    out, err = capsys.readouterr()
    return code, out, err, namespace


@pytest.fixture(autouse=True)
def fixed_width(monkeypatch):
    """Help and usage wrap at the terminal width; pin it for both parsers."""
    monkeypatch.setenv("COLUMNS", "80")


def test_every_command_is_covered():
    assert set(VALID) == set(cli._COMMANDS)
    assert len(VALID) == 9


@pytest.mark.parametrize("argv", CASES.values(), ids=CASES.keys())
def test_main_parses_as_the_full_parser(argv, capsys):
    expected = parse(build_parser(), argv, capsys)
    if expected[0] is None:
        # a successful parse: the one-command parser gives the same namespace
        assert parse(build_parser(argv[0]), argv, capsys) == expected
        return
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, out, err) == expected[:3]


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["frobnicate"], "argument command: invalid choice: 'frobnicate' (choose from 'synth', "),
])
def test_full_parser_errors_name_the_command_action(argv, message, capsys):
    """Without a command the full parser is used, and its errors call the
    subcommand action `command`, as they always have."""
    with pytest.raises(SystemExit):
        cli.main(argv)
    assert f"asc: error: {message}" in capsys.readouterr().err


def test_main_builds_only_the_invoked_commands_parser(tmp_path, monkeypatch, capsys):
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    build_parser()
    assert len(built) == 10
    built.clear()
    argv = ["plan", "--sim", str(tmp_path / "absent.csv"), "--threshold", "0.9",
            "--out", str(tmp_path / "p.json")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert built == ["asc", "asc plan"]


def run_module(*args):
    return subprocess.run([sys.executable, "-m", "asc", *args], capture_output=True,
                          text=True, env={**os.environ, "COLUMNS": "80"})


def test_module_entry_reads_sys_argv_for_command_help():
    result = run_module("plan", "-h")
    assert result.returncode == 0
    assert result.stdout.splitlines()[0].startswith("usage: asc plan")


def test_module_entry_without_command_matches_in_process(capsys):
    result = run_module()
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    out, err = capsys.readouterr()
    assert result.returncode == exc.value.code == 2
    assert (result.stdout, result.stderr) == (out, err)
    assert err.startswith("usage: asc ")
