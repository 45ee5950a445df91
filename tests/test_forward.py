import numpy as np
import numpy.testing as npt
import pytest

from asc import synth
from asc.data import TokenDataset, row_blocks
from asc.forward import embed, encoder_layer, hidden_states
from asc.model import ModelConfig, ModelWeights, tensor_shapes
from conftest import make_model
from oracles import final_hidden_state, forward_with_taps, one_block, sequence_states


def forward_oracle(config, weights, tokens):
    """Independent float64 re-derivation of the full stack (no f32 casts
    between ops), used to bound the engine's rounding error."""
    d = config.hidden_dim
    h = config.num_heads
    head_dim = d // h
    w = {name: np.asarray(tensor, dtype=np.float64) for name, tensor in weights.tensors.items()}

    def ln(x):
        mean = x.mean(axis=1, keepdims=True)
        var = x.var(axis=1, keepdims=True)
        return (x - mean) / np.sqrt(var + 1e-12)

    x = w["embed.token"][np.asarray(tokens)] + w["embed.pos"][: len(tokens)]
    if config.norm_mode == "standard":
        x = ln(x)
    states = [x]
    for k in range(config.num_layers):
        p = f"layer.{k}"
        q = x @ w[f"{p}.attn.q.w"] + w[f"{p}.attn.q.b"]
        key = x @ w[f"{p}.attn.k.w"] + w[f"{p}.attn.k.b"]
        v = x @ w[f"{p}.attn.v.w"] + w[f"{p}.attn.v.b"]
        ctx = np.empty_like(q)
        for head in range(h):
            lo, hi = head * head_dim, (head + 1) * head_dim
            scores = (q[:, lo:hi] @ key[:, lo:hi].T) / np.sqrt(head_dim)
            scores -= scores.max(axis=1, keepdims=True)
            e = np.exp(scores)
            ctx[:, lo:hi] = (e / e.sum(axis=1, keepdims=True)) @ v[:, lo:hi]
        y1 = x + ctx @ w[f"{p}.attn.o.w"] + w[f"{p}.attn.o.b"]
        if config.norm_mode == "standard":
            y1 = ln(y1) * w[f"{p}.ln1.g"] + w[f"{p}.ln1.b"]
        pre = y1 @ w[f"{p}.ffn.w1"] + w[f"{p}.ffn.b1"]
        act = 0.5 * pre * (1.0 + np.tanh(0.7978845608 * (pre + 0.044715 * pre ** 3)))
        y = y1 + act @ w[f"{p}.ffn.w2"] + w[f"{p}.ffn.b2"]
        if config.norm_mode == "standard":
            y = ln(y) * w[f"{p}.ln2.g"] + w[f"{p}.ln2.b"]
        states.append(y)
        x = y
    return states


class TestEmbed:
    def test_zero_embeddings_give_zero_row(self):
        config, weights = make_model(num_layers=0, norm_mode="none")
        weights.tensors["embed.token"] = np.zeros_like(weights["embed.token"])
        weights.tensors["embed.pos"] = np.zeros_like(weights["embed.pos"])
        npt.assert_array_equal(embed(config, weights, one_block(config, [3])),
                               np.zeros((1, config.hidden_dim), np.float32))

    def test_norm_none_is_exact_sum(self):
        config, weights = make_model(num_layers=0, norm_mode="none", seed=2)
        tokens = [4, 7, 4]
        out = embed(config, weights, one_block(config, tokens))
        expected = weights["embed.token"][tokens] + weights["embed.pos"][:3]
        npt.assert_array_equal(out, expected)

    def test_norm_standard_rows_are_normalized(self):
        config, weights = make_model(num_layers=0, norm_mode="standard", hidden_dim=8, seed=5)
        out = embed(config, weights, one_block(config, [1, 2, 3])).astype(np.float64)
        assert np.all(np.abs(out.mean(axis=1)) < 1e-6)
        assert np.all(np.abs(out.var(axis=1) - 1.0) < 1e-4)

    @pytest.mark.parametrize("norm_mode", ["standard", "none"])
    def test_batch_equals_per_row_lists(self, norm_mode):
        config, weights = make_model(vocab_size=30, norm_mode=norm_mode, seed=3)
        sequences = np.random.default_rng(5).integers(0, 30, size=(4, 9)).tolist()
        (block,) = row_blocks(TokenDataset(sequences), config)
        assert block.segments == ((4, 9),)
        batch = embed(config, weights, block)
        assert batch.shape == (4 * 9, config.hidden_dim)
        for i, rows in block.split(batch):
            npt.assert_array_equal(rows, embed(config, weights, one_block(config, sequences[i])))


class TestEncoderLayer:
    def test_planted_identity_is_exact_passthrough(self):
        config, weights = synth.gen_model(num_layers=1, hidden_dim=8, num_heads=2,
                                          ffn_dim=16, vocab_size=20, identity_layers=[1],
                                          seed=9, max_seq_len=10)
        block = one_block(config, [3, 14, 9])
        x = embed(config, weights, block)
        out = encoder_layer(config, weights, 0, x, block.segments)
        npt.assert_array_equal(out, x)

    def test_single_token_single_head_hand_trace(self):
        # n=1 collapses attention to the value projection; every step below
        # is re-derived in float64.
        config = ModelConfig(vocab_size=2, num_layers=1, hidden_dim=2, num_heads=1,
                             ffn_dim=2, max_seq_len=2, norm_mode="none")
        tensors = {name: np.zeros(shape, dtype=np.float32)
                   for name, shape in tensor_shapes(config).items()}
        tensors["embed.token"][0] = [1.0, 2.0]
        tensors["layer.0.attn.q.w"] = np.array([[1, 0], [0, 1]], dtype=np.float32)
        tensors["layer.0.attn.k.w"] = np.array([[1, 0], [0, 1]], dtype=np.float32)
        tensors["layer.0.attn.v.w"] = np.array([[0.5, -0.25], [0.0, 0.75]], dtype=np.float32)
        tensors["layer.0.attn.v.b"] = np.array([0.1, -0.2], dtype=np.float32)
        tensors["layer.0.attn.o.w"] = np.array([[1.0, 0.5], [-0.5, 1.0]], dtype=np.float32)
        tensors["layer.0.attn.o.b"] = np.array([0.05, 0.0], dtype=np.float32)
        tensors["layer.0.ffn.w1"] = np.array([[1.0, -1.0], [0.5, 0.5]], dtype=np.float32)
        tensors["layer.0.ffn.b1"] = np.array([0.0, 0.3], dtype=np.float32)
        tensors["layer.0.ffn.w2"] = np.array([[0.2, 0.4], [-0.6, 0.1]], dtype=np.float32)
        tensors["layer.0.ffn.b2"] = np.array([-0.1, 0.2], dtype=np.float32)
        tensors["layer.0.ln1.g"][:] = 1.0
        tensors["layer.0.ln2.g"][:] = 1.0
        weights = ModelWeights(tensors)

        x = np.array([[1.0, 2.0]], dtype=np.float32)
        # attention: softmax over one key is 1, so ctx = x Wv + bv
        v = x.astype(np.float64) @ tensors["layer.0.attn.v.w"].astype(np.float64) + [0.1, -0.2]
        y1 = x.astype(np.float64) + v @ tensors["layer.0.attn.o.w"].astype(np.float64) + [0.05, 0.0]
        pre = y1 @ tensors["layer.0.ffn.w1"].astype(np.float64) + [0.0, 0.3]
        act = 0.5 * pre * (1.0 + np.tanh(0.7978845608 * (pre + 0.044715 * pre ** 3)))
        expected = y1 + act @ tensors["layer.0.ffn.w2"].astype(np.float64) + [-0.1, 0.2]

        out = encoder_layer(config, weights, 0, x, ((1, 1),))
        npt.assert_allclose(out, expected, atol=1e-5)

    @pytest.mark.parametrize("norm_mode", ["standard", "none"])
    def test_matches_float64_oracle(self, norm_mode):
        config, weights = make_model(num_layers=2, hidden_dim=4, num_heads=2, ffn_dim=6,
                                     norm_mode=norm_mode, seed=13)
        tokens = [1, 5, 2]
        states = sequence_states(config, weights, tokens)
        oracle = forward_oracle(config, weights, tokens)
        assert len(states) == len(oracle)
        for got, want in zip(states, oracle):
            npt.assert_allclose(got, want, atol=1e-4)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_output_shape_matches_input(self, seed):
        rng = np.random.default_rng(seed)
        h = int(rng.integers(1, 4))
        d = h * int(rng.integers(1, 5))
        config, weights = make_model(num_layers=1, hidden_dim=d, num_heads=h,
                                     ffn_dim=int(rng.integers(1, 9)), seed=seed)
        n = int(rng.integers(1, 6))
        x = rng.standard_normal((n, d)).astype(np.float32)
        assert encoder_layer(config, weights, 0, x, ((1, n),)).shape == (n, d)


class TestTaps:
    def test_all_identity_layers_give_identical_outputs(self):
        config, weights = synth.gen_model(num_layers=2, hidden_dim=8, num_heads=2,
                                          ffn_dim=16, vocab_size=20, identity_layers=[1, 2],
                                          seed=4, max_seq_len=10)
        for frame in forward_with_taps(config, weights, [5, 0, 19]):
            first = frame.layer_outputs[0]
            for other in frame.layer_outputs[1:]:
                npt.assert_array_equal(other, first)

    def test_frame_count_and_indices(self, tiny_model):
        config, weights = tiny_model
        frames = list(forward_with_taps(config, weights, [1, 2, 3, 4]))
        assert len(frames) == 4
        assert [f.token_index for f in frames] == [0, 1, 2, 3]

    def test_frames_surface_every_hidden_state(self, tiny_model):
        config, weights = tiny_model
        tokens = [2, 9, 7]
        states = sequence_states(config, weights, tokens)
        frames = list(forward_with_taps(config, weights, tokens))
        assert len(states) == config.num_layers + 1
        for t, frame in enumerate(frames):
            assert len(frame.layer_outputs) == config.num_layers + 1
            for k, out in enumerate(frame.layer_outputs):
                npt.assert_array_equal(out, states[k][t])

    def test_first_output_is_embedding(self, tiny_model):
        config, weights = tiny_model
        tokens = [3, 1]
        rows = embed(config, weights, one_block(config, tokens))
        for frame in forward_with_taps(config, weights, tokens):
            npt.assert_array_equal(frame.layer_outputs[0], rows[frame.token_index])

    def test_determinism(self, tiny_model):
        config, weights = tiny_model
        tokens = [1, 2, 3]
        first = sequence_states(config, weights, tokens)
        second = sequence_states(config, weights, tokens)
        for a, b in zip(first, second):
            npt.assert_array_equal(a, b)

    def test_final_state_is_last_layer(self):
        for norm_mode in ("standard", "none"):
            config, weights = make_model(num_layers=3, norm_mode=norm_mode, seed=5)
            for tokens in ([1, 2], [4, 5, 6]):
                final = final_hidden_state(config, weights, tokens)
                last = sequence_states(config, weights, tokens)[-1]
                assert final.shape == last.shape
                npt.assert_array_equal(final.view(np.uint32), last.view(np.uint32))

    def test_zero_layer_final_state_is_embedding(self):
        config, weights = make_model(num_layers=0)
        tokens = [1, 2]
        npt.assert_array_equal(final_hidden_state(config, weights, tokens),
                               embed(config, weights, one_block(config, tokens)))


class TestForwardHiddenStates:
    """A dataset runs as its row blocks: `hidden_states` of each block, split
    by `block.split`, gives every sequence its own states, in any block."""

    @staticmethod
    def per_sequence(config, weights, blocks):
        """Each sequence's L+1 states, keyed by its dataset index."""
        got = {}
        for block in blocks:
            parts = [dict(block.split(state)) for state in hidden_states(config, weights, block)]
            for i in parts[0]:
                assert i not in got
                got[i] = [part[i] for part in parts]
        return got

    @pytest.mark.parametrize("norm_mode", ["standard", "none"])
    def test_each_sequence_equals_its_own_states(self, norm_mode):
        config, weights = make_model(num_layers=2, hidden_dim=8, num_heads=2, ffn_dim=16,
                                     vocab_size=30, max_seq_len=40, norm_mode=norm_mode, seed=7)
        rng = np.random.default_rng(8)
        sequences = [rng.integers(0, 30, int(rng.integers(2, 41))).tolist() for _ in range(60)]
        sequences[3:3] = [[29]]
        sequences.append([0])
        blocks = row_blocks(TokenDataset(sequences), config)
        assert len(blocks) > 3 and any(len(block.segments) > 1 for block in blocks)
        got = self.per_sequence(config, weights, blocks)
        assert sorted(got) == list(range(len(sequences)))
        for i, tokens in enumerate(sequences):
            want = sequence_states(config, weights, tokens)
            assert len(got[i]) == len(want) == 3
            for state, single in zip(got[i], want):
                assert state.dtype == np.float32 and state.shape == (len(tokens), 8)
                assert np.array_equal(state.view(np.uint32), single.view(np.uint32))

    def test_zero_layer_model_gives_the_embedding(self):
        config, weights = make_model(num_layers=0)
        sequences = [[1, 2, 3], [4], [5, 6]]
        got = self.per_sequence(config, weights, row_blocks(TokenDataset(sequences), config))
        assert [[state.shape for state in got[i]] for i in range(3)] == [[(3, 8)], [(1, 8)], [(2, 8)]]
        for i, tokens in enumerate(sequences):
            npt.assert_array_equal(got[i][0], embed(config, weights, one_block(config, tokens)))

    def test_empty_dataset_gives_no_states(self, tiny_model):
        assert row_blocks(TokenDataset([]), tiny_model[0]) == []


class TestBatches:
    """A block of one (B, n) batch gives each sequence exactly its single-sequence states."""

    @pytest.mark.parametrize("norm_mode", ["standard", "none"])
    @pytest.mark.parametrize("layers, d, heads, ffn, batch, n", [
        (1, 4, 1, 3, 2, 2),
        (2, 8, 2, 16, 3, 5),
        (3, 12, 3, 7, 5, 17),
        (2, 32, 4, 64, 4, 33),
        (1, 64, 8, 256, 6, 128),
        (2, 6, 2, 5, 1, 1),
    ])
    def test_each_row_equals_its_single_sequence_states(self, norm_mode, layers, d, heads,
                                                         ffn, batch, n):
        config, weights = make_model(num_layers=layers, hidden_dim=d, num_heads=heads,
                                     ffn_dim=ffn, vocab_size=30, max_seq_len=128,
                                     norm_mode=norm_mode, seed=d + n)
        sequences = np.random.default_rng(n).integers(0, 30, size=(batch, n)).tolist()
        (block,) = row_blocks(TokenDataset(sequences), config)
        assert block.segments == ((batch, n),)
        states = hidden_states(config, weights, block)
        assert len(states) == layers + 1
        parts = [dict(block.split(state)) for state in states]
        for b in range(batch):
            single = sequence_states(config, weights, sequences[b])
            for got, part, want in zip(states, parts, single):
                assert got.shape == (batch * n, d)
                npt.assert_array_equal(part[b], want)

    def test_encoder_layer_keeps_batch_shape(self, tiny_model):
        config, weights = tiny_model
        x = np.random.default_rng(4).standard_normal((3 * 5, config.hidden_dim)).astype(np.float32)
        out = encoder_layer(config, weights, 0, x, ((3, 5),))
        assert out.shape == x.shape
        for b in range(3):
            rows = slice(5 * b, 5 * b + 5)
            npt.assert_array_equal(out[rows], encoder_layer(config, weights, 0, x[rows], ((1, 5),)))


class TestRowBlocks:
    """Each sequence's states inside a packed row block equal its own, bit for bit."""

    @pytest.mark.parametrize("norm_mode", ["standard", "none"])
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("layers, d, heads, ffn, max_len", [
        (2, 8, 2, 16, 16),
        (2, 32, 4, 64, 40),
        (1, 64, 4, 256, 64),
    ])
    def test_each_sequence_equals_its_single_sequence_states(self, norm_mode, seed, layers, d,
                                                             heads, ffn, max_len):
        config, weights = make_model(num_layers=layers, hidden_dim=d, num_heads=heads,
                                     ffn_dim=ffn, vocab_size=30, max_seq_len=max_len,
                                     norm_mode=norm_mode, seed=seed)
        rng = np.random.default_rng(seed + 50)
        sequences = [rng.integers(0, 30, int(rng.integers(1, max_len + 1))).tolist()
                     for _ in range(60)]
        blocks = row_blocks(TokenDataset(sequences), config)
        assert sum(len(block.segments) > 1 for block in blocks) >= 2
        checked = 0
        for block in blocks:
            states = hidden_states(config, weights, block)
            rows = sum(b * n for b, n in block.segments)
            assert [state.shape for state in states] == [(rows, d)] * (layers + 1)
            parts = [dict(block.split(state)) for state in states]
            for i in parts[0]:
                single = sequence_states(config, weights, sequences[i])
                for part, want in zip(parts, single):
                    assert np.array_equal(part[i].view(np.uint32), want.view(np.uint32))
                checked += 1
        assert checked == len(sequences)

    def test_encoder_layer_takes_the_block_segments(self, tiny_model):
        config, weights = tiny_model
        sequences = [[1, 2, 3], [4, 5], [6, 7, 8, 9], [10, 11], [12, 13, 14, 15],
                     [16, 17, 18, 19]]
        block, _ = row_blocks(TokenDataset(sequences), config)
        assert block.segments == ((2, 2), (1, 3))
        x = embed(config, weights, block)
        out = encoder_layer(config, weights, 0, x, block.segments)
        for i, got in block.split(out):
            single = one_block(config, sequences[i])
            npt.assert_array_equal(got, encoder_layer(config, weights, 0, embed(config, weights, single),
                                                      single.segments))
