import functools
import os
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from asc import forward, similarity, surgery, synth
from asc.data import TokenDataset, row_blocks
from asc.errors import ValidationError
from asc.model import ModelWeights, load_model, save_model
from asc.planner import MODE_RANDOM, PrunePlan, plan_random
from asc.surgery import apply_plan, compare_models
from asc.tensor_ops import cosine_grams
from conftest import make_model
from oracles import final_hidden_state


def empty_plan():
    return PrunePlan(threshold=0.9, redundant_layers=(), anchors=())


def asc_plan(redundant, anchors, threshold=0.9):
    return PrunePlan(threshold=threshold, redundant_layers=tuple(redundant),
                     anchors=tuple(anchors))


def layer_plan(layers):
    """A plan that drops `layers` with no anchors behind them: a random-mode plan."""
    return PrunePlan(0.0, tuple(layers), (), mode=MODE_RANDOM)


class TestApplyPlan:
    def test_empty_plan_is_identity(self, tiny_model):
        config, weights = tiny_model
        new_config, new_weights = apply_plan(config, weights, empty_plan())
        assert new_config == config
        assert set(new_weights.tensors) == set(weights.tensors)
        for name, tensor in weights.tensors.items():
            npt.assert_array_equal(new_weights[name], tensor)
        tokens = [1, 2, 3]
        npt.assert_array_equal(final_hidden_state(new_config, new_weights, tokens),
                               final_hidden_state(config, weights, tokens))

    def test_six_layer_example(self):
        config, weights = make_model(num_layers=6, seed=21)
        new_config, new_weights = apply_plan(config, weights, asc_plan((2, 3), ((1, 3),)))
        assert new_config.num_layers == 4
        assert new_config.layer_ids == (1, 4, 5, 6)
        # survivors renumbered consecutively, weights preserved bit-exactly
        for new_slot, old_slot in enumerate([0, 3, 4, 5]):
            for suffix in ("attn.q.w", "ffn.w1", "ln2.b"):
                npt.assert_array_equal(new_weights[f"layer.{new_slot}.{suffix}"],
                                       weights[f"layer.{old_slot}.{suffix}"])
        npt.assert_array_equal(new_weights["embed.token"], weights["embed.token"])
        npt.assert_array_equal(new_weights["embed.pos"], weights["embed.pos"])

    def test_pruning_identity_block_preserves_final_outputs(self):
        config, weights = synth.gen_model(num_layers=4, hidden_dim=16, num_heads=2,
                                          ffn_dim=32, vocab_size=30,
                                          identity_layers=[2, 3], seed=31, max_seq_len=20)
        pruned_config, pruned_weights = apply_plan(config, weights, asc_plan((2, 3), ((1, 3),)))
        dataset = synth.gen_dataset(8, 3, 20, 30, seed=32)
        for seq in dataset.sequences:
            original = final_hidden_state(config, weights, seq)
            pruned = final_hidden_state(pruned_config, pruned_weights, seq)
            npt.assert_allclose(pruned, original, atol=1e-5)

    def test_layer_ids_compose_across_two_surgeries(self):
        config, weights = make_model(num_layers=6, seed=22)
        first_config, first_weights = apply_plan(config, weights, asc_plan((2, 3), ((1, 3),)))
        # survivors are (1, 4, 5, 6); pruning encoder index 2 of the new
        # model removes original layer 4
        second_config, second_weights = apply_plan(first_config, first_weights,
                                                   asc_plan((2,), ((1, 2),)))
        assert second_config.layer_ids == (1, 5, 6)
        npt.assert_array_equal(second_weights["layer.2.attn.q.w"],
                               weights["layer.5.attn.q.w"])

    def test_apply_then_empty_equals_apply(self):
        config, weights = make_model(num_layers=5, seed=23)
        once_config, once_weights = apply_plan(config, weights, asc_plan((1, 4), ((0, 1), (3, 4))))
        twice_config, twice_weights = apply_plan(once_config, once_weights, empty_plan())
        assert twice_config == once_config
        for name in once_weights.tensors:
            npt.assert_array_equal(twice_weights[name], once_weights[name])

    def test_remove_all_layers_leaves_embedding_only(self, tmp_path):
        config, weights = make_model(num_layers=3, seed=24)
        new_config, new_weights = apply_plan(config, weights, asc_plan((1, 2, 3), ((0, 3),)))
        assert new_config.num_layers == 0
        assert new_config.layer_ids == ()
        path = tmp_path / "bare.ascm"
        save_model(new_config, new_weights, path)
        loaded_config, _ = load_model(path)
        assert loaded_config.num_layers == 0

    def test_out_of_range_plan_rejected(self, tiny_model):
        config, weights = tiny_model
        with pytest.raises(ValidationError, match="range"):
            apply_plan(config, weights, asc_plan((7,), ((6, 7),)))

    def test_twenty_random_plans_preserve_survivors(self, tmp_path):
        config, weights = synth.gen_model(num_layers=12, hidden_dim=8, num_heads=2,
                                          ffn_dim=16, vocab_size=30,
                                          identity_layers=[4, 5], seed=40, max_seq_len=12)
        rng = np.random.default_rng(41)
        for trial in range(20):
            count = int(rng.integers(0, 13))
            the_plan = plan_random(12, count, seed=trial)
            new_config, new_weights = apply_plan(config, weights, the_plan)
            assert new_config.num_layers == 12 - count
            survivors = [e for e in range(1, 13) if e not in set(the_plan.redundant_layers)]
            assert new_config.layer_ids == tuple(survivors)
            for new_slot, encoder_index in enumerate(survivors):
                old_slot = encoder_index - 1
                for suffix in ("attn.v.w", "ffn.b1"):
                    npt.assert_array_equal(new_weights[f"layer.{new_slot}.{suffix}"],
                                           weights[f"layer.{old_slot}.{suffix}"])
            path = tmp_path / f"pruned-{trial}.ascm"
            save_model(new_config, new_weights, path)
            loaded_config, loaded_weights = load_model(path)
            assert loaded_config == new_config
            for name in new_weights.tensors:
                npt.assert_array_equal(loaded_weights[name], new_weights[name])


def compare_per_sequence(config_a, weights_a, config_b, weights_b, dataset):
    """Reference report: one sequence at a time, summed in dataset order."""
    cos_sum, cos_min, diff_max = 0.0, np.inf, 0.0
    for seq in dataset.sequences:
        out_a = final_hidden_state(config_a, weights_a, seq)
        out_b = final_hidden_state(config_b, weights_b, seq)
        cos = cosine_grams((out_a, out_b))[:, 0, 1]
        cos_sum += cos.sum()
        cos_min = min(cos_min, cos.min())
        diff_max = max(diff_max, np.abs(out_a.astype(np.float64) - out_b).max())
    return (float(cos_sum / dataset.total_tokens), float(cos_min), float(diff_max))


class TestCompareModels:
    def test_batched_report_equals_per_sequence_report(self):
        config, weights = make_model(num_layers=3, hidden_dim=8, num_heads=2, ffn_dim=16,
                                     vocab_size=20, seed=6)
        pruned_config, pruned_weights = apply_plan(config, weights, asc_plan([2], [(1, 2)]))
        rng = np.random.default_rng(6)
        dataset = TokenDataset([rng.integers(0, 20, size=n).tolist()
                                for n in (5, 9, 1, 5, 9, 7, 1, 5)])
        report = compare_models(config, weights, pruned_config, pruned_weights, dataset)
        assert (report.mean_cosine, report.min_cosine, report.max_abs_diff) == \
            compare_per_sequence(config, weights, pruned_config, pruned_weights, dataset)
        assert report.token_count == dataset.total_tokens

    def test_model_against_itself(self, tiny_model):
        config, weights = tiny_model
        dataset = synth.gen_dataset(6, 2, 10, config.vocab_size, seed=50)
        report = compare_models(config, weights, config, weights, dataset)
        assert report.token_count == dataset.total_tokens
        assert report.mean_cosine == 1.0
        assert report.min_cosine == 1.0
        assert report.max_abs_diff == 0.0

    def test_identity_pruned_model_is_equivalent(self):
        config, weights = synth.gen_model(num_layers=4, hidden_dim=16, num_heads=2,
                                          ffn_dim=32, vocab_size=30,
                                          identity_layers=[2, 3], seed=51, max_seq_len=16)
        pruned_config, pruned_weights = apply_plan(config, weights, asc_plan((2, 3), ((1, 3),)))
        dataset = synth.gen_dataset(6, 4, 16, 30, seed=52)
        report = compare_models(config, weights, pruned_config, pruned_weights, dataset)
        assert report.mean_cosine >= 1.0 - 1e-6
        assert report.max_abs_diff <= 1e-5

    def test_pruning_a_mixing_layer_diverges(self):
        config, weights = synth.gen_model(num_layers=4, hidden_dim=16, num_heads=2,
                                          ffn_dim=32, vocab_size=30,
                                          identity_layers=[2], seed=53, max_seq_len=16)
        # layer 4 mixes; removing it must change the final representation
        pruned_config, pruned_weights = apply_plan(config, weights, asc_plan((4,), ((3, 4),)))
        dataset = synth.gen_dataset(6, 4, 16, 30, seed=54)
        report = compare_models(config, weights, pruned_config, pruned_weights, dataset)
        assert report.mean_cosine < 0.99
        assert report.max_abs_diff > 0.0

    def test_hidden_dim_mismatch_rejected(self):
        config_a, weights_a = make_model(hidden_dim=8, seed=1)
        config_b, weights_b = make_model(hidden_dim=4, num_heads=2, seed=2)
        dataset = synth.gen_dataset(2, 2, 4, 20, seed=3)
        with pytest.raises(ValidationError, match="hidden dims"):
            compare_models(config_a, weights_a, config_b, weights_b, dataset)

    def test_empty_dataset_rejected(self, tiny_model):
        config, weights = tiny_model
        from asc.data import TokenDataset
        with pytest.raises(ValidationError, match="empty"):
            compare_models(config, weights, config, weights, TokenDataset([]))


PLANTED_LAYERS = 8
PASSTHROUGHS = (2, 3, 6)


@functools.cache
def planted_model(norm_mode="none"):
    """8 layers with passthroughs 2, 3 and 6 (exact only with norm_mode="none")."""
    config, weights = synth.gen_model(num_layers=PLANTED_LAYERS, hidden_dim=16, num_heads=2,
                                      ffn_dim=32, vocab_size=30, identity_layers=PASSTHROUGHS,
                                      seed=60, max_seq_len=12)
    return replace(config, norm_mode=norm_mode), weights


def mixed_lengths(seed=61):
    rng = np.random.default_rng(seed)
    return TokenDataset([rng.integers(0, 30, size=n).tolist() for n in (5, 9, 1, 5, 12, 7, 9)])


def one_batch():
    rng = np.random.default_rng(62)
    return TokenDataset([rng.integers(0, 30, size=6).tolist() for _ in range(3)])


def assert_exact(config_a, weights_a, config_b, weights_b, dataset):
    """compare_models reads exactly what one-sequence-at-a-time full forwards give."""
    report = compare_models(config_a, weights_a, config_b, weights_b, dataset)
    assert (report.mean_cosine, report.min_cosine, report.max_abs_diff) == \
        compare_per_sequence(config_a, weights_a, config_b, weights_b, dataset)
    return report


def with_tensor(weights, name, edit):
    """A copy of `weights` whose tensor `name` is replaced by edit(copy of it)."""
    tensors = dict(weights.tensors)
    tensors[name] = tensors[name].copy()
    edit(tensors[name])
    return ModelWeights(tensors)


@pytest.fixture
def layer_runs(monkeypatch):
    """Slots run per model: A's layers run inside forward.hidden_states, B's in surgery."""
    runs = {"a": [], "b": []}

    def counting(model, real):
        def layer(config, weights, k, rows, segments):
            runs[model].append(k)
            return real(config, weights, k, rows, segments)
        return layer

    monkeypatch.setattr(forward, "encoder_layer", counting("a", forward.encoder_layer))
    monkeypatch.setattr(surgery, "encoder_layer", counting("b", surgery.encoder_layer))
    return runs


class TestCompareReuse:
    """Model B takes model A's states wherever that is exact, and only there."""

    def test_reloaded_pruned_model(self, tmp_path):
        config, weights = planted_model()
        path = tmp_path / "pruned.ascm"
        save_model(*apply_plan(config, weights, layer_plan((2, 3, 5))), path)
        assert_exact(config, weights, *load_model(path), mixed_lengths())

    def test_shared_arrays_from_apply_plan(self):
        config, weights = planted_model()
        for redundant in [(2, 3, 6), (4,), (1, 8), (2, 3, 4, 5, 6, 7, 8)]:
            pruned = apply_plan(config, weights, layer_plan(redundant))
            assert_exact(config, weights, *pruned, mixed_lengths())

    @pytest.mark.parametrize("norm_mode", ["none", "standard"])
    def test_random_plans(self, norm_mode):
        config, weights = planted_model(norm_mode)
        for trial in range(6):
            the_plan = plan_random(PLANTED_LAYERS, trial + 1, seed=trial)
            assert_exact(config, weights, *apply_plan(config, weights, the_plan),
                         mixed_lengths(trial))

    def test_model_against_itself(self, layer_runs):
        config, weights = planted_model()
        report = assert_exact(config, weights, config, weights, one_batch())
        assert (report.mean_cosine, report.min_cosine, report.max_abs_diff) == (1.0, 1.0, 0.0)
        assert layer_runs["b"] == []

    def test_pruned_reference_against_further_pruned(self):
        config, weights = planted_model()
        first = apply_plan(config, weights, asc_plan((2, 5), ((1, 2), (4, 5))))
        assert first[0].layer_ids == (1, 3, 4, 6, 7, 8)
        # encoder layers 3 and 6 of the first model are original layers 4 and 7
        second = apply_plan(*first, asc_plan((3, 5), ((2, 3), (4, 5))))
        assert second[0].layer_ids == (1, 3, 6, 8)
        assert_exact(*first, *second, mixed_lengths())
        assert_exact(*second, *first, mixed_lengths())

    def test_one_ulp_is_recomputed(self, layer_runs):
        config, weights = planted_model()
        # layer 5 (slot 4) mixes; in B every entry of one of its tensors is 1 ulp up
        nudged = with_tensor(weights, "layer.4.ffn.w1", lambda t: np.nextafter(t, np.inf, out=t))
        report = assert_exact(config, weights, config, nudged, one_batch())
        assert report.max_abs_diff > 0.0
        assert layer_runs["b"] == [4, 5, 6, 7]

    def test_negative_zero_is_recomputed(self, layer_runs):
        config, weights = planted_model()
        # passthrough layer 3 (slot 2) has an all-zero value projection
        assert not weights["layer.2.attn.v.w"].any()
        flipped = with_tensor(weights, "layer.2.attn.v.w",
                              lambda t: t.__setitem__((0, 0), np.float32(-0.0)))
        assert_exact(config, weights, config, flipped, one_batch())
        assert 2 in layer_runs["b"]
        assert 0 not in layer_runs["b"] and 1 not in layer_runs["b"]

    @pytest.mark.parametrize("change", ["norm_mode", "num_heads", "embed.token"])
    def test_other_embedding_or_layer_rule_runs_everything(self, change, layer_runs):
        config, weights = planted_model()
        config_b, weights_b = config, weights
        if change == "norm_mode":
            config_b = replace(config, norm_mode="standard")
        elif change == "num_heads":
            config_b = replace(config, num_heads=4)
        else:
            weights_b = with_tensor(weights, "embed.token", lambda t: np.nextafter(t, np.inf, out=t))
        dataset = mixed_lengths()
        assert_exact(config, weights, config_b, weights_b, dataset)
        blocks = len(row_blocks(dataset, config))
        assert layer_runs["b"] == list(range(PLANTED_LAYERS)) * blocks

    def test_layer_ids_that_a_lacks(self, layer_runs):
        config, weights = planted_model()
        # same tensors, but as if they were layers 11..18 of some other model
        renamed = replace(config, layer_ids=tuple(range(11, 19)))
        report = assert_exact(config, weights, renamed, weights, one_batch())
        assert report.max_abs_diff == 0.0
        assert layer_runs["b"] == list(range(PLANTED_LAYERS))

    def test_layer_ids_shifted_onto_other_tensors(self):
        config, weights = planted_model()
        # B's slot s claims A's layer s + 2, whose tensors differ
        shifted = replace(config, layer_ids=tuple(range(2, 10)))
        assert_exact(config, weights, shifted, weights, mixed_lengths())

    @settings(derandomize=True, deadline=None, max_examples=40, database=None)
    @given(norm_mode=st.sampled_from(["none", "standard"]),
           first=st.sets(st.integers(1, PLANTED_LAYERS), max_size=3),
           second=st.sets(st.integers(1, PLANTED_LAYERS), max_size=PLANTED_LAYERS),
           swap=st.booleans())
    def test_random_plan_pairs_are_exact(self, norm_mode, first, second, swap):
        config, weights = planted_model(norm_mode)
        model_a = apply_plan(config, weights, layer_plan(sorted(first)))
        kept = model_a[0].num_layers
        model_b = apply_plan(*model_a, layer_plan(sorted(i for i in second if i <= kept)))
        if swap:
            model_a, model_b = model_b, model_a
        assert_exact(*model_a, *model_b, mixed_lengths())


class TestCompareRowBlocks:
    @pytest.mark.parametrize("norm_mode", ["none", "standard"])
    def test_report_equals_per_sequence_report(self, norm_mode):
        config, weights = planted_model(norm_mode)
        rng = np.random.default_rng(63)
        dataset = TokenDataset([rng.integers(0, 30, size=int(rng.integers(1, 13))).tolist()
                                for _ in range(40)])
        blocks = row_blocks(dataset, config)
        assert len(blocks) >= 3 and any(len(block.segments) > 1 for block in blocks)
        for redundant in [(), (4,), (2, 3, 6), (1, 5, 8)]:
            pruned = apply_plan(config, weights, layer_plan(redundant))
            assert_exact(config, weights, *pruned, dataset)
            assert_exact(*pruned, config, weights, dataset)


class TestCompareLayerCount:
    """Layer evaluations per batch: A runs all of its layers once, B only what differs."""

    def test_passthrough_pruned_self_runs_only_a(self, tmp_path, layer_runs):
        config, weights = planted_model()
        path = tmp_path / "pruned.ascm"
        save_model(*apply_plan(config, weights, layer_plan(PASSTHROUGHS)), path)
        report = compare_models(config, weights, *load_model(path), one_batch())
        assert (report.mean_cosine, report.max_abs_diff) == (1.0, 0.0)
        assert layer_runs["a"] == list(range(PLANTED_LAYERS))
        assert layer_runs["b"] == []

    def test_b_resumes_before_first_removed_mixing_layer(self, layer_runs):
        config, weights = planted_model()
        # layer 4 mixes: B (ids 1, 2, 3, 5, 6, 7, 8) takes A's state after
        # layer 3 and runs its last L_B - (4 - 1) = 4 layers itself
        compare_models(config, weights, *apply_plan(config, weights, layer_plan((4,))),
                       one_batch())
        assert layer_runs["a"] == list(range(PLANTED_LAYERS))
        assert layer_runs["b"] == [3, 4, 5, 6]

    def test_random_plans_run_b_from_first_removed_mixing_layer(self, layer_runs):
        config, weights = planted_model()
        for trial in range(10):
            the_plan = plan_random(PLANTED_LAYERS, trial % 6 + 1, seed=100 + trial)
            pruned_config, _ = pruned = apply_plan(config, weights, the_plan)
            layer_runs["a"].clear()
            layer_runs["b"].clear()
            compare_models(config, weights, *pruned, one_batch())
            mixing = [i for i in the_plan.redundant_layers if i not in PASSTHROUGHS]
            first_mixing = min(mixing, default=PLANTED_LAYERS + 1)
            reused = sum(1 for i in pruned_config.layer_ids if i < first_mixing)
            assert layer_runs["a"] == list(range(PLANTED_LAYERS))
            assert layer_runs["b"] == list(range(reused, pruned_config.num_layers))


def many_blocks(seed=64):
    """40 sequences of 1-12 tokens, several of length 1: several row blocks at any pool size."""
    rng = np.random.default_rng(seed)
    lengths = [1, 1, 1] + rng.integers(1, 13, size=37).tolist()
    return TokenDataset([rng.integers(0, 30, size=n).tolist() for n in lengths])


class TestParallelCompare:
    """`workers` deals row blocks to forked shards as `analyze` does; the
    report is the same, field for field, at every worker count."""

    @pytest.mark.parametrize("norm_mode", ["none", "standard"])
    @pytest.mark.parametrize("which", ["planted", "random"])
    def test_report_equal_at_every_worker_count(self, monkeypatch, forks, norm_mode, which):
        monkeypatch.setattr(similarity, "usable_cores", lambda: 4)
        config, weights = planted_model(norm_mode)
        the_plan = layer_plan(PASSTHROUGHS) if which == "planted" else plan_random(
            PLANTED_LAYERS, 4, seed=65)
        pruned = apply_plan(config, weights, the_plan)
        dataset = many_blocks()
        serial = assert_exact(config, weights, *pruned, dataset)
        assert forks == []
        for workers in range(1, 5):
            assert len(row_blocks(dataset, config, workers=workers)) >= 4
            forks.clear()
            assert compare_models(config, weights, *pruned, dataset, workers=workers) == serial
            assert forks == [os.getpid()] * (workers - 1)
        if which == "planted" and norm_mode == "none":
            assert (serial.mean_cosine, serial.max_abs_diff) == (1.0, 0.0)

    def test_nan_in_a_child_shard_is_refused(self, monkeypatch):
        """Only the longest sequence reaches B's NaN, and its block lies in a
        child's shard; the child's error is raised here, and conftest's
        `no_child_left` checks that the child was reaped."""
        monkeypatch.setattr(similarity, "usable_cores", lambda: 2)
        config, weights = planted_model()
        nan_b = with_tensor(weights, "embed.pos", lambda t: t.__setitem__((11, 0), np.nan))
        dataset = TokenDataset([[3] * n for n in (2, 4, 6, 12)])
        blocks = row_blocks(dataset, config, workers=2)
        assert len(blocks) == 2 and blocks[1].segments == ((1, 12),)  # shard 1: a child
        with pytest.raises(ValidationError) as serial:
            compare_models(config, weights, config, nan_b, dataset)
        with pytest.raises(ValidationError) as parallel:
            compare_models(config, weights, config, nan_b, dataset, workers=2)
        assert str(parallel.value) == str(serial.value) == \
            "the models' final-layer states hold non-finite values"

    def test_pool_is_capped_by_cores_and_blocks(self, monkeypatch, forks):
        """Sequences of lengths 1, 3, 6 and 11 make three row blocks at any pool size."""
        config, weights = planted_model()
        pruned = apply_plan(config, weights, layer_plan((4,)))
        dataset = TokenDataset([[5] * n for n in (6, 1, 11, 3)])
        serial = compare_models(config, weights, *pruned, dataset)
        for workers, cores, pool in [(10**6, 64, 3), (10**6, 2, 2), (2, 64, 2), (1, 64, 1)]:
            monkeypatch.setattr(similarity, "usable_cores", lambda cores=cores: cores)
            assert len(row_blocks(dataset, config, workers=min(workers, cores))) == 3
            forks.clear()
            assert compare_models(config, weights, *pruned, dataset, workers=workers) == serial
            assert forks == [os.getpid()] * (pool - 1)

    def test_bad_workers_rejected(self, forks):
        """workers is a Python int >= 1, as for `analyze`; nothing is cast."""
        config, weights = planted_model()
        for workers in (0, -1, True, 1.5, "2", np.int64(2)):
            with pytest.raises(ValidationError, match="workers"):
                compare_models(config, weights, config, weights, one_batch(), workers=workers)
        assert forks == []
