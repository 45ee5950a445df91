"""A model is checked once where it enters the library, with the one rule
`validate_weights` applies (less its finiteness scan): `analyze`,
`compare_models`, `apply_plan` and `forward_hidden_states` each refuse a
malformed in-memory model with the message `validate_weights` gives, and
`analyze` does so before it forks. A NaN that only some sequences reach is
refused where the result is made."""

import os
from dataclasses import replace

import numpy as np
import pytest
from conftest import make_model

from asc import analyze, apply_plan, compare_models, forward_hidden_states, gen_dataset
from asc.data import TokenDataset, row_blocks
from asc.errors import ValidationError
from asc.model import ModelWeights, validate_weights
from asc.planner import PrunePlan

D, F = 8, 16


def swapped(name, make):
    """An edit that puts `make(tensor)` in place of tensor `name`."""
    def edit(config, tensors):
        tensors[name] = make(tensors[name])
        return config
    return edit


def dropped(name):
    def edit(config, tensors):
        del tensors[name]
        return config
    return edit


def reconfigured(**changes):
    def edit(config, tensors):
        return replace(config, **changes)
    return edit


# (case id, norm_mode of the model it edits, edit)
MALFORMED = [
    ("attn.o.b (1,)", "standard", swapped("layer.0.attn.o.b", lambda t: t[:1])),
    ("ffn.b1 (1,)", "standard", swapped("layer.1.ffn.b1", lambda t: t[:1])),
    ("ffn.w1 (d, f/2)", "standard", swapped("layer.0.ffn.w1", lambda t: t[:, : F // 2])),
    ("attn.q.w (d, d/2)", "standard", swapped("layer.1.attn.q.w", lambda t: t[:, : D // 2])),
    ("float64", "standard", swapped("layer.1.ffn.w2", lambda t: t.astype(np.float64))),
    ("float16", "standard", swapped("embed.pos", lambda t: t.astype(np.float16))),
    ("list", "standard", swapped("layer.0.ln2.b", lambda t: t.tolist())),
    ("missing tensor", "standard", dropped("layer.1.attn.k.b")),
    ("more layers than weights", "standard", reconfigured(num_layers=3, layer_ids=(1, 2, 3))),
    ("num_heads does not divide hidden_dim", "standard", reconfigured(num_heads=3)),
    ("ln1.g shape under norm none", "none", swapped("layer.0.ln1.g", lambda t: t[:-1])),
]


@pytest.fixture(params=MALFORMED, ids=[case[0] for case in MALFORMED])
def malformed(request):
    """(good config, good weights, bad config, bad weights, the message
    validate_weights gives for the bad model)."""
    _, norm_mode, edit = request.param
    config, weights = make_model(hidden_dim=D, ffn_dim=F, norm_mode=norm_mode)
    tensors = dict(weights.tensors)
    bad_config = edit(config, tensors)
    bad_weights = ModelWeights(tensors)
    with pytest.raises(ValidationError) as expected:
        validate_weights(bad_config, bad_weights)
    return config, weights, bad_config, bad_weights, str(expected.value)


def dataset(config):
    return gen_dataset(6, 2, 8, config.vocab_size, seed=1)


@pytest.fixture
def forks(monkeypatch):
    """Every os.fork call, counted."""
    calls = []
    real = os.fork

    def counted():
        calls.append(1)
        return real()

    monkeypatch.setattr(os, "fork", counted)
    return calls


@pytest.mark.parametrize("workers", [1, 2])
def test_analyze_refuses_before_any_fork(malformed, forks, workers):
    config, _, bad_config, bad_weights, message = malformed
    with pytest.raises(ValidationError) as err:
        analyze(bad_config, bad_weights, dataset(config), workers=workers)
    assert str(err.value) == message
    assert forks == []


def test_compare_refuses_as_a_and_as_b(malformed):
    config, weights, bad_config, bad_weights, message = malformed
    for models in [(bad_config, bad_weights, config, weights),
                   (config, weights, bad_config, bad_weights)]:
        with pytest.raises(ValidationError) as err:
            compare_models(*models, dataset(config))
        assert str(err.value) == message


def test_apply_plan_refuses(malformed):
    _, _, bad_config, bad_weights, message = malformed
    with pytest.raises(ValidationError) as err:
        apply_plan(bad_config, bad_weights, PrunePlan(0.9, (1,), ((0, 1),)))
    assert str(err.value) == message


def test_forward_hidden_states_refuses(malformed):
    config, _, bad_config, bad_weights, message = malformed
    (block,) = row_blocks(TokenDataset([[1, 2, 3]]), config)
    with pytest.raises(ValidationError) as err:
        forward_hidden_states(bad_config, bad_weights, block)
    assert str(err.value) == message


NAN_ROW = 10


@pytest.fixture
def nan_model():
    """A good model, the same model with a NaN in position row NAN_ROW, and
    a dataset in which only one sequence is long enough to reach that row."""
    config, weights = make_model(hidden_dim=D, ffn_dim=F, max_seq_len=16)
    tensors = dict(weights.tensors)
    tensors["embed.pos"] = tensors["embed.pos"].copy()
    tensors["embed.pos"][NAN_ROW, 3] = np.nan
    data = gen_dataset(12, 2, NAN_ROW, config.vocab_size, seed=3)
    data.sequences.append(list(range(NAN_ROW + 2)))
    return config, weights, ModelWeights(tensors), data


@pytest.mark.parametrize("workers", [1, 2])
def test_analyze_refuses_a_nan_some_sequences_reach(nan_model, workers):
    config, _, bad, data = nan_model
    with pytest.raises(ValidationError, match="non-finite"):
        analyze(config, bad, data, workers=workers)


def test_compare_refuses_a_nan_some_sequences_reach(nan_model):
    """min() and max() would drop the NaN: the report read min_cosine 1.0
    and max_abs_diff 0.0 beside a NaN mean."""
    config, good, bad, data = nan_model
    for weights_a, weights_b in [(bad, good), (good, bad), (bad, bad)]:
        with pytest.raises(ValidationError, match="non-finite"):
            compare_models(config, weights_a, config, weights_b, data)


def test_entries_do_not_scan_weight_values(nan_model):
    """A NaN that no sequence reaches is no entry's concern: only load_model,
    save_model and gen_model scan every value."""
    config, good, bad, data = nan_model
    del data.sequences[-1]
    matrix = analyze(config, bad, data)
    assert np.array_equal(matrix.values, analyze(config, good, data).values)
    report = compare_models(config, bad, config, good, data)
    assert (report.mean_cosine, report.max_abs_diff) == (1.0, 0.0)
    pruned_config, _ = apply_plan(config, bad, PrunePlan(0.9, (1,), ((0, 1),)))
    assert pruned_config.num_layers == 1
    for block in row_blocks(data, config):
        forward_hidden_states(config, bad, block)
