import importlib.util
from pathlib import Path

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
