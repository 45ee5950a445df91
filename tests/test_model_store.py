import json
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from asc import synth
from asc.cli import main
from asc.errors import AscError, FormatError, ValidationError
from asc.model import (
    FORMAT_VERSION,
    MAGIC,
    ModelConfig,
    ModelWeights,
    load_model,
    save_model,
    tensor_shapes,
    validate_weights,
)
from conftest import header_paths, make_model, other_typed


def read_header(path):
    with open(path, "rb") as handle:
        blob = handle.read()
    (header_len,) = struct.unpack("<I", blob[8:12])
    header = json.loads(blob[12: 12 + header_len].decode("utf-8"))
    return blob, header_len, header


def rewrite_header(path, header, payload):
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(MAGIC)
        handle.write(struct.pack("<I", len(header_bytes)))
        handle.write(header_bytes)
        handle.write(payload)


def assert_random_prune_refuses(tmp_path, capsys, edits):
    """Save a 1-layer model, set each header key path in `edits` to its value,
    and check that `random-prune` exits 1 with `error: ...` and writes nothing."""
    config, weights = make_model(num_layers=1, hidden_dim=4, num_heads=2, ffn_dim=8,
                                 vocab_size=6, max_seq_len=5)
    path = tmp_path / "m.ascm"
    save_model(config, weights, path)
    blob, header_len, header = read_header(path)
    for keys, value in edits.items():
        target = header
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
    rewrite_header(path, header, blob[12 + header_len:])
    out = tmp_path / "out.ascm"
    assert main(["random-prune", "--model", str(path), "--count", "0", "--seed", "0",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


class TestConfig:
    def test_default_layer_ids_are_identity(self):
        config, _ = make_model(num_layers=3)
        assert config.layer_ids == (1, 2, 3)

    def test_heads_must_divide_hidden_dim(self):
        config = ModelConfig(vocab_size=10, num_layers=1, hidden_dim=5, num_heads=2,
                             ffn_dim=8, max_seq_len=4)
        with pytest.raises(ValidationError, match="d mod h"):
            config.validate()

    def test_layer_ids_must_be_increasing(self):
        config = ModelConfig(vocab_size=10, num_layers=2, hidden_dim=4, num_heads=2,
                             ffn_dim=8, max_seq_len=4, layer_ids=(3, 2))
        with pytest.raises(ValidationError, match="increasing"):
            config.validate()

    @pytest.mark.parametrize("layer_ids", [(1.9, 2.2), (1.0, 2.0), (True, 2), (1, np.int64(2)),
                                           "12", 12])
    def test_layer_ids_must_be_ints(self, layer_ids):
        with pytest.raises(ValidationError, match="layer_ids must be integers"):
            ModelConfig(vocab_size=10, num_layers=2, hidden_dim=4, num_heads=2,
                        ffn_dim=8, max_seq_len=4, layer_ids=layer_ids)

    def test_layer_ids_list_kept_as_tuple(self):
        config = ModelConfig(vocab_size=10, num_layers=2, hidden_dim=4, num_heads=2,
                             ffn_dim=8, max_seq_len=4, layer_ids=[2, 5])
        assert config.layer_ids == (2, 5)

    def test_zero_layers_allowed(self):
        config = ModelConfig(vocab_size=10, num_layers=0, hidden_dim=4, num_heads=2,
                             ffn_dim=8, max_seq_len=4)
        config.validate()
        assert config.layer_ids == ()

    def test_dict_round_trip(self):
        config, _ = make_model(num_layers=2)
        assert ModelConfig.from_dict(config.to_dict()) == config

    def test_from_dict_rejects_missing_and_extra(self):
        config, _ = make_model()
        data = config.to_dict()
        del data["vocab_size"]
        with pytest.raises(FormatError, match="missing"):
            ModelConfig.from_dict(data)
        data = config.to_dict()
        data["bogus"] = 1
        with pytest.raises(FormatError, match="unknown"):
            ModelConfig.from_dict(data)


class TestWeightsValidation:
    def test_missing_tensor(self, tiny_model):
        config, weights = tiny_model
        broken = ModelWeights(dict(weights.tensors))
        del broken.tensors["layer.0.ffn.w1"]
        with pytest.raises(ValidationError, match="missing"):
            validate_weights(config, broken)

    def test_extra_tensor(self, tiny_model):
        config, weights = tiny_model
        broken = ModelWeights(dict(weights.tensors))
        broken.tensors["layer.9.ffn.w1"] = np.zeros((2, 2), dtype=np.float32)
        with pytest.raises(ValidationError, match="unexpected"):
            validate_weights(config, broken)

    def test_wrong_shape_names_tensor(self, tiny_model):
        config, weights = tiny_model
        broken = ModelWeights(dict(weights.tensors))
        broken.tensors["embed.token"] = np.zeros((2, 2), dtype=np.float32)
        with pytest.raises(ValidationError, match="embed.token"):
            validate_weights(config, broken)

    def test_non_finite_rejected(self, tiny_model):
        config, weights = tiny_model
        broken = ModelWeights(dict(weights.tensors))
        bad = broken.tensors["embed.pos"].copy()
        bad[0, 0] = np.nan
        broken.tensors["embed.pos"] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            validate_weights(config, broken)

    def test_wrong_dtype_rejected(self, tiny_model):
        config, weights = tiny_model
        broken = ModelWeights(dict(weights.tensors))
        broken.tensors["embed.pos"] = broken.tensors["embed.pos"].astype(np.float64)
        with pytest.raises(ValidationError, match="dtype"):
            validate_weights(config, broken)


class TestRoundTrip:
    def test_one_layer_model_round_trips_bit_exactly(self, tmp_path):
        config, weights = make_model(num_layers=1, hidden_dim=4, num_heads=2, ffn_dim=8,
                                     vocab_size=6, max_seq_len=5, seed=3)
        path = tmp_path / "m.ascm"
        save_model(config, weights, path)
        loaded_config, loaded_weights = load_model(path)
        assert loaded_config == config
        assert set(loaded_weights.tensors) == set(weights.tensors)
        for name, tensor in weights.tensors.items():
            got = loaded_weights[name]
            assert got.dtype == np.float32
            assert np.array_equal(got, tensor)

    def test_invalid_config_rejected_before_write(self, tmp_path):
        config = ModelConfig(vocab_size=10, num_layers=1, hidden_dim=5, num_heads=2,
                             ffn_dim=8, max_seq_len=4)
        path = tmp_path / "never.ascm"
        with pytest.raises(ValidationError):
            save_model(config, ModelWeights({}), path)
        assert not path.exists()

    def test_bool_size_refused_before_write(self, tmp_path):
        """A bool passes `isinstance(v, int)`; the loader refuses it, so the writer must too."""
        config, weights = make_model(num_layers=1)
        path = tmp_path / "never.ascm"
        with pytest.raises(ValidationError, match="num_layers"):
            save_model(replace(config, num_layers=True), weights, path)
        assert not path.exists()

    def test_zero_layer_model_round_trips(self, tmp_path):
        config, weights = make_model(num_layers=0)
        path = tmp_path / "m.ascm"
        save_model(config, weights, path)
        loaded_config, loaded_weights = load_model(path)
        assert loaded_config.num_layers == 0
        assert set(loaded_weights.tensors) == {"embed.token", "embed.pos"}

    def test_non_contiguous_tensor_saves_its_values(self, tmp_path):
        """A transposed or strided view is written as its values, the same
        bytes as its contiguous copy."""
        config, weights = make_model(num_layers=1)
        views = dict(weights.tensors)
        views["layer.0.attn.q.w"] = np.ascontiguousarray(views["layer.0.attn.q.w"].T).T
        views["embed.pos"] = np.repeat(views["embed.pos"], 2, axis=0)[::2]
        assert not any(views[name].flags.c_contiguous for name in ("layer.0.attn.q.w", "embed.pos"))
        save_model(config, ModelWeights(views), tmp_path / "views.ascm")
        save_model(config, weights, tmp_path / "copies.ascm")
        assert (tmp_path / "views.ascm").read_bytes() == (tmp_path / "copies.ascm").read_bytes()

    def test_resave_is_byte_identical(self, tmp_path):
        config, weights = synth.gen_model(num_layers=2, hidden_dim=8, num_heads=2,
                                          ffn_dim=16, vocab_size=30, identity_layers=[1],
                                          seed=11, max_seq_len=12)
        first = tmp_path / "a.ascm"
        second = tmp_path / "b.ascm"
        save_model(config, weights, first)
        save_model(*load_model(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_config_echoes_generator_parameters(self, tmp_path):
        config, weights = synth.gen_model(num_layers=3, hidden_dim=8, num_heads=4,
                                          ffn_dim=12, vocab_size=40, identity_layers=[],
                                          seed=5, max_seq_len=9)
        path = tmp_path / "m.ascm"
        save_model(config, weights, path)
        loaded_config, _ = load_model(path)
        assert loaded_config.num_layers == 3
        assert loaded_config.hidden_dim == 8
        assert loaded_config.num_heads == 4
        assert loaded_config.ffn_dim == 12
        assert loaded_config.vocab_size == 40
        assert loaded_config.max_seq_len == 9
        assert loaded_config.norm_mode == "none"

    def test_offsets_are_aligned(self, tmp_path):
        config, weights = make_model(num_layers=1, hidden_dim=6, num_heads=3, ffn_dim=10,
                                     vocab_size=7, max_seq_len=3)
        path = tmp_path / "m.ascm"
        save_model(config, weights, path)
        _, _, header = read_header(path)
        for entry in header["tensors"].values():
            assert entry["offset"] % 8 == 0


class TestLoadErrors:
    @pytest.fixture
    def saved(self, tmp_path):
        config, weights = make_model(num_layers=1, hidden_dim=4, num_heads=2, ffn_dim=8,
                                     vocab_size=6, max_seq_len=5)
        path = tmp_path / "m.ascm"
        save_model(config, weights, path)
        return path

    def test_bad_magic(self, saved):
        blob = saved.read_bytes()
        saved.write_bytes(b"XXXXXXXX" + blob[8:])
        with pytest.raises(FormatError, match="magic"):
            load_model(saved)

    def test_truncated_payload(self, saved):
        blob = saved.read_bytes()
        saved.write_bytes(blob[:-10])
        with pytest.raises(FormatError, match="truncated payload"):
            load_model(saved)

    def test_trailing_garbage_rejected(self, saved):
        blob = saved.read_bytes()
        saved.write_bytes(blob + b"\0" * 8)
        with pytest.raises(FormatError, match="payload length"):
            load_model(saved)

    def test_truncated_header(self, saved):
        blob = saved.read_bytes()
        saved.write_bytes(blob[:20])
        with pytest.raises(FormatError, match="truncated header"):
            load_model(saved)

    def test_unknown_version(self, saved):
        blob, header_len, header = read_header(saved)
        payload = blob[12 + header_len:]
        header["version"] = 99
        rewrite_header(saved, header, payload)
        with pytest.raises(FormatError, match="version"):
            load_model(saved)

    def test_wrong_shape_names_tensor(self, saved):
        blob, header_len, header = read_header(saved)
        payload = blob[12 + header_len:]
        header["tensors"]["layer.0.attn.q.w"]["shape"] = [4, 3]
        rewrite_header(saved, header, payload)
        with pytest.raises(FormatError, match="layer.0.attn.q.w"):
            load_model(saved)

    def test_bad_dtype(self, saved):
        blob, header_len, header = read_header(saved)
        payload = blob[12 + header_len:]
        header["tensors"]["embed.token"]["dtype"] = "f16"
        rewrite_header(saved, header, payload)
        with pytest.raises(FormatError, match="dtype"):
            load_model(saved)

    def test_overlapping_offsets(self, saved):
        blob, header_len, header = read_header(saved)
        payload = blob[12 + header_len:]
        names = list(header["tensors"])
        header["tensors"][names[1]]["offset"] = header["tensors"][names[0]]["offset"]
        rewrite_header(saved, header, payload)
        with pytest.raises(FormatError):
            load_model(saved)

    def test_swapped_offsets_rejected(self, saved):
        """Same-sized tensors at each other's offsets overlap nothing, but the
        layout is not the canonical one, so the file is refused."""
        blob, header_len, header = read_header(saved)
        payload = blob[12 + header_len:]
        q_b, k_b = header["tensors"]["layer.0.attn.q.b"], header["tensors"]["layer.0.attn.k.b"]
        q_b["offset"], k_b["offset"] = k_b["offset"], q_b["offset"]
        rewrite_header(saved, header, payload)
        with pytest.raises(FormatError, match="layer.0.attn"):
            load_model(saved)

    def test_missing_tensor_entry(self, saved):
        blob, header_len, header = read_header(saved)
        payload = blob[12 + header_len:]
        del header["tensors"]["layer.0.ln2.b"]
        rewrite_header(saved, header, payload)
        with pytest.raises(FormatError, match="missing"):
            load_model(saved)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_model(tmp_path / "absent.ascm")

    def test_header_corruption_never_yields_partial_model(self, saved):
        """Flip single header bytes; every outcome is an error or a fully
        valid model, never a partially validated one."""
        blob = saved.read_bytes()
        (header_len,) = struct.unpack("<I", blob[8:12])
        rng = np.random.default_rng(0)
        corrupt_path = saved.parent / "corrupt.ascm"
        for _ in range(200):
            pos = int(rng.integers(0, 12 + header_len))
            flip = bytes([blob[pos] ^ int(rng.integers(1, 256))])
            corrupt_path.write_bytes(blob[:pos] + flip + blob[pos + 1:])
            try:
                config, weights = load_model(corrupt_path)
            except AscError:
                continue
            config.validate()
            validate_weights(config, weights)


class TestStrictHeader:
    """Header values of the wrong JSON type are refused, never coerced."""

    @pytest.mark.parametrize("keys, value", [
        (("version",), True),
        (("version",), 1.0),
        (("config", "vocab_size"), "6"),
        (("config", "num_layers"), True),
        (("config", "hidden_dim"), 4.0),
        (("config", "num_heads"), 2.5),
        (("config", "num_heads"), True),
        (("config", "ffn_dim"), 8.9),
        (("config", "max_seq_len"), 5.0),
        (("config", "layer_ids"), [1.0]),
        (("config", "layer_ids"), [True]),
        (("config", "layer_ids"), "1"),
        (("tensors", "layer.0.attn.q.w", "shape"), 5),
        (("tensors", "layer.0.attn.q.w", "shape"), [4.0, 4]),
        (("tensors", "embed.token", "offset"), False),
    ], ids=lambda v: repr(v))
    def test_cli_exits_1_with_error(self, tmp_path, capsys, keys, value):
        assert_random_prune_refuses(tmp_path, capsys, {keys: value})


class TestHeaderConsistency:
    """Well-typed header values that contradict the config are refused."""

    def test_empty_layer_ids_not_filled_in(self, tmp_path, capsys):
        assert_random_prune_refuses(tmp_path, capsys, {("config", "layer_ids"): []})

    def test_oversized_hidden_dim(self, tmp_path, capsys):
        assert_random_prune_refuses(tmp_path, capsys, {("config", "hidden_dim"): 10**20,
                                                       ("config", "num_heads"): 1})


class TestLoaderTotality:
    """Truncations, byte flips and header type swaps of a valid file end in
    FormatError or ValidationError, never in another exception."""

    @pytest.fixture(scope="class")
    def valid(self, tmp_path_factory):
        config, weights = make_model(num_layers=1, hidden_dim=4, num_heads=2, ffn_dim=8,
                                     vocab_size=6, max_seq_len=5)
        directory = tmp_path_factory.mktemp("totality")
        save_model(config, weights, directory / "valid.ascm")
        return (directory / "valid.ascm").read_bytes(), directory / "case.ascm"

    def test_every_truncation_refused(self, valid):
        blob, path = valid
        for length in range(len(blob)):
            path.write_bytes(blob[:length])
            with pytest.raises((FormatError, ValidationError)):
                load_model(path)

    @settings(derandomize=True, deadline=None, max_examples=200, database=None)
    @given(data=st.data())
    def test_single_byte_flip(self, valid, data):
        blob, path = valid
        pos = data.draw(st.integers(0, len(blob) - 1))
        flip = data.draw(st.integers(1, 255))
        path.write_bytes(blob[:pos] + bytes([blob[pos] ^ flip]) + blob[pos + 1:])
        try:
            load_model(path)
        except (FormatError, ValidationError):
            pass  # a flip inside the payload may leave a valid model

    @settings(derandomize=True, deadline=None, max_examples=200, database=None)
    @given(data=st.data())
    def test_header_type_swap_refused(self, valid, data):
        blob, path = valid
        (header_len,) = struct.unpack("<I", blob[8:12])
        header = json.loads(blob[12: 12 + header_len])
        keys = data.draw(st.sampled_from(list(header_paths(header))))
        target = header
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = data.draw(st.sampled_from(other_typed(target[keys[-1]])))
        rewrite_header(path, header, blob[12 + header_len:])
        with pytest.raises((FormatError, ValidationError)):
            load_model(path)


def config_with_header_residue(tmp_path, residue):
    """A saved model whose header length is `residue` mod 4, which puts its
    payload at that alignment within the file."""
    for num_layers in (1, 2):
        for vocab_size in range(2, 200):
            config, weights = make_model(num_layers=num_layers, hidden_dim=4, num_heads=2,
                                         ffn_dim=8, vocab_size=vocab_size, max_seq_len=5,
                                         seed=vocab_size)
            path = tmp_path / "m.ascm"
            save_model(config, weights, path)
            if read_header(path)[1] % 4 == residue:
                return config, weights, path
    raise AssertionError(f"no header length = {residue} mod 4")


class TestLoadedTensors:
    @pytest.mark.parametrize("residue", [0, 1, 2, 3])
    def test_aligned_writable_float32_views(self, tmp_path, residue):
        config, weights, path = config_with_header_residue(tmp_path, residue)
        loaded_config, loaded = load_model(path)
        assert loaded_config == config
        for name, tensor in loaded.tensors.items():
            assert tensor.dtype == np.float32
            assert tensor.flags.c_contiguous and tensor.flags.aligned
            assert tensor.flags.writeable
            assert tensor.tobytes() == weights[name].tobytes()
        # views into one payload buffer, not one copy per tensor
        bases = {id(tensor.base) for tensor in loaded.tensors.values()}
        assert len(bases) == 1 and loaded["embed.token"].base is not None

    def test_mutate_in_place_then_save(self, tmp_path):
        config, weights = make_model(num_layers=1, hidden_dim=4, num_heads=2, ffn_dim=8,
                                     vocab_size=6, max_seq_len=5)
        path, resaved = tmp_path / "m.ascm", tmp_path / "m2.ascm"
        save_model(config, weights, path)
        _, loaded = load_model(path)
        loaded["layer.0.ffn.w1"][1, 2] = 1.25
        save_model(config, loaded, resaved)
        _, reloaded = load_model(resaved)
        for name, tensor in weights.tensors.items():
            if name != "layer.0.ffn.w1":
                assert reloaded[name].tobytes() == tensor.tobytes()
        expected = weights["layer.0.ffn.w1"].copy()
        expected[1, 2] = 1.25
        assert reloaded["layer.0.ffn.w1"].tobytes() == expected.tobytes()

    def test_payload_beyond_file_refused_before_allocating(self, tmp_path, capsys):
        """A header whose canonical layout claims ~10**15 payload bytes ends as
        `error: ... truncated payload` with no allocation of that size."""
        config, weights = make_model(num_layers=1, hidden_dim=4, num_heads=2, ffn_dim=8,
                                     vocab_size=6, max_seq_len=5)
        path = tmp_path / "m.ascm"
        save_model(config, weights, path)
        blob, header_len, header = read_header(path)
        vocab_size = 62_500_000_000_000  # embed.token alone is 16 * vocab_size bytes
        header["config"]["vocab_size"] = vocab_size
        header["tensors"]["embed.token"]["shape"][0] = vocab_size
        shift = 16 * (vocab_size - config.vocab_size)
        for name, entry in header["tensors"].items():
            if name != "embed.token":
                entry["offset"] += shift
        rewrite_header(path, header, blob[12 + header_len:])
        out = tmp_path / "out.ascm"
        tracemalloc.start()
        try:
            code = main(["random-prune", "--model", str(path), "--count", "0", "--seed", "0",
                         "--out", str(out)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "truncated payload" in err
        assert peak < 1 << 20
        assert not out.exists()


class TestTensorShapes:
    def test_layer_zero_names_present(self):
        config, _ = make_model(num_layers=1, hidden_dim=4, num_heads=2, ffn_dim=8)
        shapes = tensor_shapes(config)
        assert shapes["layer.0.attn.q.w"] == (4, 4)
        assert shapes["layer.0.ffn.w1"] == (4, 8)
        assert shapes["layer.0.ffn.w2"] == (8, 4)
        assert shapes["layer.0.ln1.g"] == (4,)

    def test_name_count(self):
        config, _ = make_model(num_layers=3)
        assert len(tensor_shapes(config)) == 2 + 3 * 16
