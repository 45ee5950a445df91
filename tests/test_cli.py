import json
import struct
import subprocess
import sys

import numpy as np
import numpy.testing as npt
import pytest

from asc import forward, similarity, synth
from asc import model as model_module
from asc.cli import main
from asc.data import TokenDataset, row_blocks
from asc.model import MAGIC, load_model
from asc.planner import load_plan
from asc.similarity import load_matrix_csv, write_matrix_csv, SimilarityMatrix
from oracles import final_hidden_state


def write_matrix(path, values, tokens=10):
    write_matrix_csv(SimilarityMatrix(values=np.asarray(values, dtype=np.float64),
                                      token_count=tokens), path)


HAND_VALUES = [
    [1.00, 0.95, 0.80, 0.30],
    [0.95, 1.00, 0.95, 0.50],
    [0.80, 0.95, 1.00, 0.92],
    [0.30, 0.50, 0.92, 1.00],
]


@pytest.fixture
def pipeline_files(tmp_path):
    model = tmp_path / "model.ascm"
    data = tmp_path / "data.txt"
    assert main(["synth", "--layers", "4", "--hidden-dim", "16", "--heads", "2",
                 "--ffn-dim", "32", "--vocab", "40", "--identity-layers", "2,3",
                 "--seed", "7", "--out", str(model)]) == 0
    assert main(["gen-data", "--sequences", "10", "--min-len", "4", "--max-len", "12",
                 "--vocab", "40", "--seed", "8", "--out", str(data)]) == 0
    return tmp_path, model, data


class TestSynthAndGenData:
    def test_synth_writes_loadable_model(self, pipeline_files):
        _, model, _ = pipeline_files
        config, _ = load_model(model)
        assert config.num_layers == 4

    def test_outputs_deterministic(self, tmp_path):
        args = ["synth", "--layers", "2", "--hidden-dim", "8", "--heads", "2",
                "--ffn-dim", "16", "--vocab", "20", "--seed", "3", "--out"]
        a, b = tmp_path / "a.ascm", tmp_path / "b.ascm"
        assert main(args + [str(a)]) == 0
        assert main(args + [str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_gen_data_deterministic(self, tmp_path):
        args = ["gen-data", "--sequences", "5", "--min-len", "2", "--max-len", "6",
                "--vocab", "9", "--seed", "1", "--out"]
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main(args + [str(a)]) == 0
        assert main(args + [str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_synth_invalid_dims_exit_code(self, tmp_path, capsys):
        code = main(["synth", "--layers", "1", "--hidden-dim", "5", "--heads", "2",
                     "--ffn-dim", "8", "--vocab", "10", "--seed", "0",
                     "--out", str(tmp_path / "m.ascm")])
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "m.ascm").exists()

    @pytest.mark.parametrize("argv", [
        ["synth", "--layers", "2", "--hidden-dim", "8", "--heads", "2", "--ffn-dim", "16",
         "--vocab", "20", "--seed", "-1"],
        ["gen-data", "--sequences", "3", "--min-len", "2", "--max-len", "4", "--vocab", "9",
         "--seed", "-5"],
        ["random-prune", "--model", "MODEL", "--count", "1", "--seed", "-1"],
    ], ids=lambda argv: argv[0])
    def test_negative_seed_refused(self, tmp_path, capsys, argv):
        model = tmp_path / "model.ascm"
        assert main(["synth", "--layers", "2", "--hidden-dim", "8", "--heads", "2",
                     "--ffn-dim", "16", "--vocab", "20", "--seed", "0", "--out", str(model)]) == 0
        capsys.readouterr()
        argv = [str(model) if word == "MODEL" else word for word in argv]
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: seed must be an int >= 0, got -")
        assert not out.exists()

    def test_synth_non_integer_identity_layers(self, tmp_path, capsys):
        out = tmp_path / "m.ascm"
        code = main(["synth", "--layers", "2", "--hidden-dim", "8", "--heads", "2",
                     "--ffn-dim", "16", "--vocab", "20", "--identity-layers", "a",
                     "--seed", "0", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


class TestAnalyze:
    def test_writes_matrix_with_header(self, pipeline_files, capsys):
        tmp_path, model, data = pipeline_files
        out = tmp_path / "sim.csv"
        assert main(["analyze", "--model", str(model), "--data", str(data),
                     "--out", str(out)]) == 0
        matrix = load_matrix_csv(out)
        assert matrix.size == 5
        assert out.read_text().splitlines()[0].startswith("# asc-sim v1 layers=5 tokens=")

    def test_thirteen_layer_header(self, tmp_path):
        model = tmp_path / "m.ascm"
        data = tmp_path / "d.txt"
        assert main(["synth", "--layers", "12", "--hidden-dim", "8", "--heads", "2",
                     "--ffn-dim", "16", "--vocab", "20", "--seed", "2",
                     "--out", str(model)]) == 0
        assert main(["gen-data", "--sequences", "2", "--min-len", "3", "--max-len", "5",
                     "--vocab", "20", "--seed", "3", "--out", str(data)]) == 0
        out = tmp_path / "sim.csv"
        assert main(["analyze", "--model", str(model), "--data", str(data),
                     "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0].startswith("# asc-sim v1 layers=13")

    def test_workers_agree(self, pipeline_files):
        tmp_path, model, data = pipeline_files
        single, multi = tmp_path / "s1.csv", tmp_path / "s4.csv"
        assert main(["analyze", "--model", str(model), "--data", str(data),
                     "--out", str(single), "--workers", "1"]) == 0
        assert main(["analyze", "--model", str(model), "--data", str(data),
                     "--out", str(multi), "--workers", "4"]) == 0
        npt.assert_allclose(load_matrix_csv(single).values,
                            load_matrix_csv(multi).values, atol=1e-9)

    def test_embedding_only_model_refused(self, pipeline_files, capsys):
        tmp_path, model, data = pipeline_files
        bare = tmp_path / "bare.ascm"
        assert main(["random-prune", "--model", str(model), "--count", "4",
                     "--seed", "0", "--out", str(bare)]) == 0
        capsys.readouterr()
        out = tmp_path / "sim.csv"
        assert main(["analyze", "--model", str(bare), "--data", str(data),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: cannot analyze a model with no encoder layers\n"
        assert not out.exists()

    def test_missing_model_fails_without_output(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        code = main(["analyze", "--model", str(tmp_path / "nope.ascm"),
                     "--data", str(tmp_path / "nope.txt"), "--out", str(out)])
        assert code == 1
        assert not out.exists()

    def test_failed_analyze_leaves_no_partial_output(self, pipeline_files, capsys):
        tmp_path, model, _ = pipeline_files
        bad_data = tmp_path / "bad.txt"
        bad_data.write_text("1 2 3\n9999\n")
        out = tmp_path / "sim.csv"
        code = main(["analyze", "--model", str(model), "--data", str(bad_data),
                     "--out", str(out)])
        assert code == 1
        assert not out.exists()
        assert len(list(tmp_path.glob(".tmp-*"))) == 0


class TestPlan:
    def test_identity_matrix_prunes_nothing(self, tmp_path, capsys):
        sim = tmp_path / "sim.csv"
        write_matrix(sim, np.eye(4))
        out = tmp_path / "plan.json"
        assert main(["plan", "--sim", str(sim), "--threshold", "0.9",
                     "--out", str(out)]) == 0
        assert "0 layers pruned" in capsys.readouterr().out
        assert load_plan(out).redundant_layers == ()

    def test_hand_matrix(self, tmp_path, capsys):
        sim = tmp_path / "sim.csv"
        write_matrix(sim, HAND_VALUES)
        out = tmp_path / "plan.json"
        assert main(["plan", "--sim", str(sim), "--threshold", "0.9",
                     "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "2 layers pruned: 1,3" in stdout
        loaded = load_plan(out)
        assert loaded.redundant_layers == (1, 3)
        assert loaded.anchors == ((0, 1), (2, 3))
        assert loaded.matrix_fingerprint is not None

    def test_threshold_out_of_range(self, tmp_path, capsys):
        sim = tmp_path / "sim.csv"
        write_matrix(sim, np.eye(3))
        out = tmp_path / "plan.json"
        code = main(["plan", "--sim", str(sim), "--threshold", "1.5", "--out", str(out)])
        assert code == 1
        assert "threshold" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_csv_reports_line(self, tmp_path, capsys):
        sim = tmp_path / "sim.csv"
        sim.write_text("# asc-sim v1 layers=2 tokens=3\n1.0,oops\n0.0,1.0\n")
        code = main(["plan", "--sim", str(sim), "--threshold", "0.9",
                     "--out", str(tmp_path / "plan.json")])
        assert code == 1
        assert ":2" in capsys.readouterr().err


class TestPruneCommands:
    def test_empty_plan_round_trip(self, pipeline_files, capsys):
        tmp_path, model, data = pipeline_files
        sim = tmp_path / "sim.csv"
        write_matrix(sim, np.eye(5))
        plan_path = tmp_path / "plan.json"
        assert main(["plan", "--sim", str(sim), "--threshold", "0.9",
                     "--out", str(plan_path)]) == 0
        out = tmp_path / "same.ascm"
        assert main(["prune", "--model", str(model), "--plan", str(plan_path),
                     "--out", str(out)]) == 0
        config_a, weights_a = load_model(model)
        config_b, weights_b = load_model(out)
        assert config_a == config_b
        for name in weights_a.tensors:
            npt.assert_array_equal(weights_b[name], weights_a[name])

    def test_prune_reports_original_layers(self, pipeline_files, capsys):
        tmp_path, model, data = pipeline_files
        sim = tmp_path / "sim.csv"
        plan_path = tmp_path / "plan.json"
        out = tmp_path / "pruned.ascm"
        assert main(["analyze", "--model", str(model), "--data", str(data),
                     "--out", str(sim)]) == 0
        assert main(["plan", "--sim", str(sim), "--threshold", "0.999",
                     "--out", str(plan_path)]) == 0
        capsys.readouterr()
        assert main(["prune", "--model", str(model), "--plan", str(plan_path),
                     "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "removed original layers: 2,3" in stdout
        config, _ = load_model(out)
        assert config.layer_ids == (1, 4)

    def test_random_prune_shape(self, pipeline_files):
        tmp_path, model, _ = pipeline_files
        out = tmp_path / "rand.ascm"
        assert main(["random-prune", "--model", str(model), "--count", "2",
                     "--seed", "5", "--out", str(out)]) == 0
        config, _ = load_model(out)
        assert config.num_layers == 2

    def test_random_prune_twelve_layer_baseline(self, tmp_path):
        model = tmp_path / "m.ascm"
        assert main(["synth", "--layers", "12", "--hidden-dim", "8", "--heads", "2",
                     "--ffn-dim", "16", "--vocab", "20", "--seed", "4",
                     "--out", str(model)]) == 0
        out = tmp_path / "rand.ascm"
        assert main(["random-prune", "--model", str(model), "--count", "6",
                     "--seed", "11", "--out", str(out)]) == 0
        config, _ = load_model(out)
        assert config.num_layers == 6
        assert len(config.layer_ids) == 6

    def test_prune_all_layers_notes_embedding_only(self, pipeline_files, capsys):
        tmp_path, model, _ = pipeline_files
        out = tmp_path / "bare.ascm"
        assert main(["random-prune", "--model", str(model), "--count", "4",
                     "--seed", "0", "--out", str(out)]) == 0
        assert "embedding-only" in capsys.readouterr().out
        config, _ = load_model(out)
        assert config.num_layers == 0


def assert_refused(capsys, argv, out):
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


class TestNonUtf8Input:
    """A byte that is not UTF-8 in any text input ends as `error: ...`."""

    def test_dataset(self, pipeline_files, capsys):
        tmp_path, model, data = pipeline_files
        data.write_bytes(data.read_bytes() + b"1 2 \xff\n")
        assert_refused(capsys, ["analyze", "--model", str(model), "--data", str(data)],
                       tmp_path / "sim.csv")

    def test_matrix_csv(self, tmp_path, capsys):
        sim = tmp_path / "sim.csv"
        write_matrix(sim, HAND_VALUES)
        sim.write_bytes(sim.read_bytes().replace(b"0.95", b"0.9\xff", 1))
        assert_refused(capsys, ["plan", "--sim", str(sim), "--threshold", "0.9"],
                       tmp_path / "plan.json")

    def test_plan_json(self, pipeline_files, capsys):
        tmp_path, model, _ = pipeline_files
        plan_path = tmp_path / "plan.json"
        plan_path.write_bytes(b'{"version": 1, "mode": "\xff"}\n')
        assert_refused(capsys, ["prune", "--model", str(model), "--plan", str(plan_path)],
                       tmp_path / "pruned.ascm")


class TestDeeplyNestedJson:
    """JSON nested deeper than the decoder can follow ends as `error: ...`."""

    NESTED = b"[" * 200_000

    def test_model_header(self, pipeline_files, capsys):
        tmp_path, model, _ = pipeline_files
        blob = model.read_bytes()
        (header_len,) = struct.unpack("<I", blob[8:12])
        model.write_bytes(MAGIC + struct.pack("<I", len(self.NESTED)) + self.NESTED
                          + blob[12 + header_len:])
        assert_refused(capsys, ["random-prune", "--model", str(model), "--count", "0",
                                "--seed", "0"], tmp_path / "pruned.ascm")

    def test_plan_json(self, pipeline_files, capsys):
        tmp_path, model, _ = pipeline_files
        plan_path = tmp_path / "plan.json"
        plan_path.write_bytes(self.NESTED)
        assert_refused(capsys, ["prune", "--model", str(model), "--plan", str(plan_path)],
                       tmp_path / "pruned.ascm")


SYNTH_ARGS = ["synth", "--layers", "2", "--hidden-dim", "8", "--heads", "2", "--ffn-dim", "16",
              "--vocab", "20", "--seed", "0"]
GEN_DATA_ARGS = ["gen-data", "--sequences", "3", "--min-len", "2", "--max-len", "4",
                 "--vocab", "9", "--seed", "1"]


def with_value(argv, flag, value):
    """`argv` with `flag` set to `value`, replacing its value if it has one."""
    if flag in argv:
        at = argv.index(flag) + 1
        return argv[:at] + [value] + argv[at + 1:]
    return argv + [flag, value]


class TestStrictNumbers:
    """Numbers that Python's int() or float() would coerce are refused."""

    @pytest.mark.parametrize("argv, flag, value", [
        (SYNTH_ARGS, "--layers", "\u0662"),
        (SYNTH_ARGS, "--hidden-dim", "1_6"),
        (SYNTH_ARGS, "--heads", " 2"),
        (SYNTH_ARGS, "--max-seq-len", "+64"),
        (SYNTH_ARGS, "--seed", "\uff10"),
        (GEN_DATA_ARGS, "--sequences", "1_0"),
        (GEN_DATA_ARGS, "--max-len", "\u0663"),
        (GEN_DATA_ARGS, "--vocab", "9.0"),
        pytest.param(GEN_DATA_ARGS, "--seed", "1" * 5000, id="gen-data-seed-beyond-digit-limit"),
        (["analyze", "--model", "m.ascm", "--data", "d.txt"], "--workers", "\u0662"),
        (["plan", "--sim", "s.csv"], "--threshold", "0.9_99"),
        (["plan", "--sim", "s.csv"], "--threshold", "nan"),
        (["plan", "--sim", "s.csv"], "--threshold", "\u0660.9"),
        (["plan", "--sim", "s.csv"], "--threshold", "0.9 "),
        (["random-prune", "--model", "m.ascm", "--seed", "1"], "--count", "1_0"),
        (["random-prune", "--model", "m.ascm", "--count", "1"], "--seed", "\u0661"),
    ], ids=lambda v: v[0] if isinstance(v, list) else ascii(v))
    def test_numeric_flag(self, tmp_path, capsys, argv, flag, value):
        """Refused by the argument parser, as `--layers abc` is, before any file is read."""
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(with_value(argv, flag, value) + ["--out", str(out)])
        assert exc.value.code == 2
        assert f"argument {flag}: invalid " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["\u0662", "2,\u0663", "1_0", "+2", "2,\u00a03"],
                             ids=ascii)
    def test_identity_layers(self, tmp_path, capsys, value):
        """Refused as `--identity-layers a` is: exit 1 with `error: ...`. With
        12 layers, every value int() would read names a layer in range."""
        argv = with_value(SYNTH_ARGS, "--layers", "12") + ["--identity-layers", value]
        assert_refused(capsys, argv, tmp_path / "m.ascm")

    def test_loader_forms_accepted(self, tmp_path, capsys):
        """What the file loaders read still works: a sign, an exponent, spaces around list items."""
        model = tmp_path / "m.ascm"
        assert main(with_value(SYNTH_ARGS, "--layers", "3")
                    + ["--identity-layers", "2, 3", "--out", str(model)]) == 0
        assert "identity_layers=[2, 3]" in capsys.readouterr().out
        sim = tmp_path / "sim.csv"
        write_matrix(sim, HAND_VALUES)
        plan_path = tmp_path / "plan.json"
        assert main(["plan", "--sim", str(sim), "--threshold", "+9.0E-1",
                     "--out", str(plan_path)]) == 0
        assert load_plan(plan_path).threshold == 0.9

    @pytest.mark.parametrize("line", ["1_0 2 3", "\u0663 2 3", "1 +2 3", "1\u00a02\u30003"])
    def test_dataset_token(self, pipeline_files, capsys, line):
        tmp_path, model, _ = pipeline_files
        data = tmp_path / "odd.txt"
        data.write_text(f"1 2\n{line}\n", encoding="utf-8")
        assert_refused(capsys, ["forward", "--model", str(model), "--data", str(data)],
                       tmp_path / "emb.csv")

    def test_negative_token_keeps_its_message(self, pipeline_files, capsys):
        tmp_path, model, _ = pipeline_files
        data = tmp_path / "neg.txt"
        data.write_text("1 2\n3 -4\n")
        out = tmp_path / "emb.csv"
        assert main(["forward", "--model", str(model), "--data", str(data),
                     "--out", str(out)]) == 1
        assert "neg.txt:2: negative token id" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("old, new", [
        ("0.95", "0.9_5"),
        ("0.95", "\u0660.95"),
        ("0.95", " 0.95"),
        ("tokens=10", "tokens=\u0665"),
        ("layers=4", "layers=\u0664"),
    ])
    def test_matrix_csv_value(self, tmp_path, capsys, old, new):
        sim = tmp_path / "sim.csv"
        write_matrix(sim, HAND_VALUES)
        sim.write_text(sim.read_text().replace(old, new, 1), encoding="utf-8")
        assert_refused(capsys, ["plan", "--sim", str(sim), "--threshold", "0.9"],
                       tmp_path / "plan.json")


class TestSizesNumpyCannotDraw:
    """A size numpy cannot draw or allocate ends as one `error: ...` line and
    exit 1, with no file left; each once ended in a traceback."""

    @pytest.mark.parametrize("argv, flag, value", [
        (GEN_DATA_ARGS, "--vocab", str(2 ** 63 + 1)),
        (GEN_DATA_ARGS, "--max-len", str(2 ** 63)),
        (SYNTH_ARGS, "--ffn-dim", str(2 ** 63)),
        (SYNTH_ARGS, "--ffn-dim", str(2 ** 62)),
        (SYNTH_ARGS, "--max-seq-len", str(2 ** 61)),
    ], ids=lambda v: v[0] if isinstance(v, list) else v)
    def test_refused_before_any_draw(self, tmp_path, capsys, argv, flag, value):
        out = tmp_path / "out"
        assert main(with_value(argv, flag, value) + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.endswith(f", beyond the {synth.MAX_DRAW} values numpy can draw\n")
        assert list(tmp_path.iterdir()) == []

    NUMPY_MESSAGE = ("Unable to allocate 7.28 TiB for an array with shape (1000000000000,) "
                     "and data type int64")

    @pytest.mark.parametrize("argv, generator, error, message", [
        (GEN_DATA_ARGS, "gen_dataset", MemoryError(NUMPY_MESSAGE), NUMPY_MESSAGE),
        (SYNTH_ARGS, "gen_model", MemoryError(), "out of memory"),
    ], ids=["gen-data", "synth"])
    def test_memory_error(self, tmp_path, capsys, monkeypatch, argv, generator, error, message):
        """Patched in: a test must not really run out of memory."""
        def out_of_memory(**kwargs):
            raise error

        monkeypatch.setattr(synth, generator, out_of_memory)
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []


class TestHugeIntegers:
    """An integer with more digits than int() converts ends as `error: ...`."""

    DIGITS = "1" * 5000

    def test_model_header(self, pipeline_files, capsys):
        tmp_path, model, _ = pipeline_files
        blob = model.read_bytes()
        (header_len,) = struct.unpack("<I", blob[8:12])
        header = blob[12: 12 + header_len].replace(b'"vocab_size":40',
                                                   b'"vocab_size":' + self.DIGITS.encode())
        model.write_bytes(MAGIC + struct.pack("<I", len(header)) + header
                          + blob[12 + header_len:])
        assert_refused(capsys, ["random-prune", "--model", str(model), "--count", "0",
                                "--seed", "0"], tmp_path / "pruned.ascm")

    def test_plan_json(self, pipeline_files, capsys):
        tmp_path, model, _ = pipeline_files
        plan_path = tmp_path / "plan.json"
        plan_path.write_text('{"version": ' + self.DIGITS + "}")
        assert_refused(capsys, ["prune", "--model", str(model), "--plan", str(plan_path)],
                       tmp_path / "pruned.ascm")

    def test_matrix_header(self, tmp_path, capsys):
        sim = tmp_path / "sim.csv"
        write_matrix(sim, HAND_VALUES)
        sim.write_text(sim.read_text().replace("tokens=10", "tokens=" + self.DIGITS))
        assert_refused(capsys, ["plan", "--sim", str(sim), "--threshold", "0.9"],
                       tmp_path / "plan.json")

    def test_dataset_token(self, pipeline_files, capsys):
        tmp_path, model, data = pipeline_files
        data.write_text("1 2\n" + self.DIGITS + "\n")
        assert_refused(capsys, ["forward", "--model", str(model), "--data", str(data)],
                       tmp_path / "emb.csv")

    def test_dataset_token_beyond_64_bits_is_out_of_range(self, pipeline_files, capsys):
        tmp_path, model, data = pipeline_files
        data.write_text("1 2\n3 100000000000000000000\n")
        out = tmp_path / "emb.csv"
        assert main(["forward", "--model", str(model), "--data", str(data),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: token id 100000000000000000000 out of range [0, 40)\n")
        assert not out.exists()


class TestRender:
    def test_all_ones_pgm(self, tmp_path):
        sim = tmp_path / "sim.csv"
        write_matrix(sim, np.ones((3, 3)))
        out = tmp_path / "sim.pgm"
        assert main(["render", "--sim", str(sim), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "P2"
        assert all(pix == "255" for row in lines[3:] for pix in row.split())

    def test_format_option_refused(self, tmp_path, capsys):
        sim = tmp_path / "sim.csv"
        write_matrix(sim, np.eye(2))
        out = tmp_path / "px.csv"
        with pytest.raises(SystemExit) as exc:
            main(["render", "--sim", str(sim), "--out", str(out), "--format", "csv"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --format" in capsys.readouterr().err
        assert not out.exists()


class TestCompareAndForward:
    def test_compare_model_with_itself(self, pipeline_files, capsys):
        _, model, data = pipeline_files
        assert main(["compare", "--model-a", str(model), "--model-b", str(model),
                     "--data", str(data)]) == 0
        stdout = capsys.readouterr().out
        assert "mean_cosine: 1.0" in stdout
        assert "max_abs_diff: 0.0" in stdout

    def test_forward_single_token_row(self, pipeline_files):
        tmp_path, model, _ = pipeline_files
        data = tmp_path / "one.txt"
        data.write_text("7\n")
        out = tmp_path / "emb.csv"
        assert main(["forward", "--model", str(model), "--data", str(data),
                     "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 1
        assert len(rows[0].split(",")) == 16

    def test_forward_keeps_input_order_across_length_batches(self, pipeline_files):
        tmp_path, model, _ = pipeline_files
        rng = np.random.default_rng(3)
        sequences = [rng.integers(0, 40, size=n).tolist() for n in (5, 9, 5, 9, 7)]
        data = tmp_path / "interleaved.txt"
        data.write_text("".join(" ".join(map(str, seq)) + "\n" for seq in sequences))
        out = tmp_path / "emb.csv"
        assert main(["forward", "--model", str(model), "--data", str(data),
                     "--out", str(out)]) == 0
        config, weights = load_model(model)
        expected = "".join(",".join(repr(float(v)) for v in row) + "\n"
                           for seq in sequences
                           for row in final_hidden_state(config, weights, seq))
        assert out.read_text() == expected

    def test_forward_keeps_input_order_across_row_blocks(self, pipeline_files):
        tmp_path, model, _ = pipeline_files
        config, weights = load_model(model)
        rng = np.random.default_rng(4)
        sequences = [rng.integers(0, 40, size=int(rng.integers(1, 13))).tolist()
                     for _ in range(30)]
        blocks = row_blocks(TokenDataset(sequences), config)
        assert len(blocks) >= 3 and any(len(block.segments) > 1 for block in blocks)
        data = tmp_path / "mixed.txt"
        data.write_text("".join(" ".join(map(str, seq)) + "\n" for seq in sequences))
        out = tmp_path / "emb.csv"
        assert main(["forward", "--model", str(model), "--data", str(data),
                     "--out", str(out)]) == 0
        expected = "".join(",".join(repr(float(v)) for v in row) + "\n"
                           for seq in sequences
                           for row in final_hidden_state(config, weights, seq))
        assert out.read_text() == expected

    def test_compare_output_same_at_every_core_count(self, pipeline_files, capsys,
                                                     monkeypatch, forks):
        """`asc compare` runs one shard per usable core, at most one per block;
        its printout is the same, byte for byte, with 1 core or 4."""
        tmp_path, model, _ = pipeline_files
        pruned = tmp_path / "pruned.ascm"
        assert main(["random-prune", "--model", str(model), "--count", "2", "--seed", "3",
                     "--out", str(pruned)]) == 0
        config, _ = load_model(model)
        rng = np.random.default_rng(5)
        sequences = [rng.integers(0, 40, size=n).tolist() for n in [1, 1, *range(2, 13)] * 3]
        assert len(row_blocks(TokenDataset(sequences), config, workers=4)) >= 4
        data = tmp_path / "mixed.txt"
        data.write_text("".join(" ".join(map(str, seq)) + "\n" for seq in sequences))
        outputs = []
        for cores in (1, 4):
            monkeypatch.setattr(similarity, "usable_cores", lambda cores=cores: cores)
            capsys.readouterr()
            assert main(["compare", "--model-a", str(model), "--model-b", str(pruned),
                         "--data", str(data)]) == 0
            outputs.append(capsys.readouterr().out)
        assert len(forks) == 3  # with 4 cores: shard 0 here, 3 children
        assert outputs[0] == outputs[1]
        assert outputs[0].startswith(f"tokens: {sum(map(len, sequences))}\n")

    def test_forward_checks_the_model_once(self, pipeline_files, monkeypatch):
        """`load_model` checks the model; the blocks, length-1 ones among them,
        run unchecked and give each sequence's own final states."""
        tmp_path, model, _ = pipeline_files
        config, weights = load_model(model)
        rng = np.random.default_rng(6)
        sequences = [rng.integers(0, 40, size=n).tolist() for n in (1, 7, 1, 12, 3, 7, 1, 5)]
        assert len(row_blocks(TokenDataset(sequences), config)) >= 5
        expected = "".join(",".join(repr(float(v)) for v in row) + "\n"
                           for seq in sequences
                           for row in final_hidden_state(config, weights, seq))
        data = tmp_path / "mixed.txt"
        data.write_text("".join(" ".join(map(str, seq)) + "\n" for seq in sequences))
        checks = []

        def counting(config, weights):
            checks.append(1)
            return real_check(config, weights)

        real_check = model_module.check_model
        monkeypatch.setattr(model_module, "check_model", counting)
        monkeypatch.setattr(forward, "check_model", counting)
        out = tmp_path / "emb.csv"
        assert main(["forward", "--model", str(model), "--data", str(data),
                     "--out", str(out)]) == 0
        assert checks == [1]
        assert out.read_text() == expected

    def test_forward_row_count_matches_tokens(self, pipeline_files):
        tmp_path, model, data = pipeline_files
        out = tmp_path / "emb.csv"
        assert main(["forward", "--model", str(model), "--data", str(data),
                     "--out", str(out)]) == 0
        total = sum(len(line.split()) for line in data.read_text().splitlines() if line.strip())
        assert len(out.read_text().splitlines()) == total


class TestEndToEnd:
    def test_full_pipeline(self, pipeline_files, capsys):
        tmp_path, model, data = pipeline_files
        sim = tmp_path / "sim.csv"
        plan_path = tmp_path / "plan.json"
        pruned = tmp_path / "pruned.ascm"
        assert main(["analyze", "--model", str(model), "--data", str(data),
                     "--out", str(sim)]) == 0
        assert main(["plan", "--sim", str(sim), "--threshold", "0.999",
                     "--out", str(plan_path)]) == 0
        assert main(["prune", "--model", str(model), "--plan", str(plan_path),
                     "--out", str(pruned)]) == 0
        capsys.readouterr()
        assert main(["compare", "--model-a", str(model), "--model-b", str(pruned),
                     "--data", str(data)]) == 0
        stdout = capsys.readouterr().out
        mean = float(stdout.split("mean_cosine: ")[1].splitlines()[0])
        assert mean >= 0.999
        assert json.loads(plan_path.read_text())["redundant_layers"] == [2, 3]

    def test_console_script_entry_point(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "asc", "gen-data", "--sequences", "2",
             "--min-len", "2", "--max-len", "4", "--vocab", "5", "--seed", "0",
             "--out", str(tmp_path / "d.txt")],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert (tmp_path / "d.txt").exists()
