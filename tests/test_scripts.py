import importlib.util
from pathlib import Path

import pytest

from asc import similarity

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_threshold_sweep_finds_planted_layers(capsys):
    sweep = load_script("threshold_sweep")
    sweep.main(["--layers", "4", "--hidden-dim", "8", "--heads", "2", "--ffn-dim", "16",
                "--vocab", "20", "--identity", "2,3", "--sequences", "3",
                "--thresholds", "0.999"])
    lines = capsys.readouterr().out.splitlines()
    assert "identity layers [2, 3]" in lines[0]
    # the 5x5 matrix, then a blank line, the table header and one row
    matrix_rows = [[float(v) for v in line.split()] for line in lines[1:6]]
    assert all(len(row) == 5 for row in matrix_rows)
    assert lines[6] == ""
    assert lines[8].split()[:4] == ["0.999", "2", "2,3", "1-3"]


def test_threshold_sweep_output_same_at_every_core_count(capsys, monkeypatch):
    """The sweep's `compare_models` calls run one shard per usable core; its
    printout is the same, byte for byte, with 1 core or 4."""
    sweep = load_script("threshold_sweep")
    outputs = []
    for cores in (1, 4):
        monkeypatch.setattr(similarity, "usable_cores", lambda cores=cores: cores)
        monkeypatch.setattr(sweep, "usable_cores", lambda cores=cores: cores)
        sweep.main(["--layers", "6", "--hidden-dim", "8", "--heads", "2", "--ffn-dim", "16",
                    "--vocab", "20", "--identity", "2,3", "--sequences", "12",
                    "--thresholds", "0.5,0.999"])
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


SMALL = ["--layers", "3", "--hidden-dim", "8", "--heads", "2", "--ffn-dim", "16", "--vocab", "20",
         "--sequences", "2"]


@pytest.mark.parametrize("args, error", [
    (["--identity", "2,,3"],
     "--identity must be comma-separated values (invalid int value: ''), got '2,,3'"),
    (["--identity", "+2"],
     "--identity must be comma-separated values (invalid int value: '+2'), got '+2'"),
    (["--identity", "1_0"],
     "--identity must be comma-separated values (invalid int value: '1_0'), got '1_0'"),
    (["--identity", "2,2"], "identity layer 2 given twice"),
    (["--identity", "2", "--thresholds", "nan"],
     "--thresholds must be comma-separated values (invalid float value: 'nan'), got 'nan'"),
    (["--identity", "2", "--thresholds", "1.5"], "plan: threshold must be in (0, 1], got 1.5"),
    (["--identity", "2", "--thresholds", ""], "--thresholds must hold at least one threshold, got ''"),
], ids=["identity-empty-item", "identity-plus-sign", "identity-underscore", "identity-repeated",
        "thresholds-nan", "thresholds-out-of-range", "thresholds-empty"])
def test_threshold_sweep_refuses_as_asc_does(capsys, args, error):
    """A value `asc synth --identity-layers` or `asc plan --threshold`
    refuses ends the sweep with exit 1 and one `error:` line, not a
    traceback: an empty item is not dropped, int() or float() would take
    `+2`, `1_0` or `nan`, and no threshold at all once printed a matrix and
    an empty table."""
    code = load_script("threshold_sweep").main(SMALL + args)
    assert (code, capsys.readouterr().err) == (1, f"error: {error}\n")


@pytest.mark.parametrize("flag", ["--layers", "--sequences", "--seed"])
def test_threshold_sweep_ints_read_as_asc_reads_them(capsys, flag):
    """`--layers 1_0` once built a 10-layer model: an int flag is refused by
    the argument parser, as `asc`'s are."""
    with pytest.raises(SystemExit) as exc:
        load_script("threshold_sweep").main(SMALL + [flag, "1_0"])
    assert exc.value.code == 2
    assert f"argument {flag}: invalid int value: '1_0'" in capsys.readouterr().err
