"""Each argument is checked once where it enters the library. A model gets
the one rule `validate_weights` applies (less its finiteness scan):
`analyze`, `compare_models`, `apply_plan`, `forward_hidden_states` and
`save_model` each refuse a malformed in-memory model with the message
`validate_weights` gives, and `analyze` and `compare_models` do so before
they fork. A NaN that only some sequences reach is refused where the result
is made. Any other package object is refused by type
(`errors.require_type`), then by its own `validate()`, and no public
function lets a wrong type reach a raw error."""

import inspect
from dataclasses import asdict, replace

import numpy as np
import pytest
from conftest import make_model

import asc
from asc import (analyze, apply_plan, compare_models, forward_hidden_states, gen_dataset, plan,
                 save_dataset, save_model, similarity, write_matrix_csv, write_plan)
from asc.data import RowBlock, TokenDataset, row_blocks
from asc.errors import AscError, ValidationError
from asc.heatmap import write_pgm
from asc.model import ModelConfig, ModelWeights, check_model, validate_weights
from asc.planner import PrunePlan
from asc.similarity import SimilarityMatrix

D, F = 8, 16


def swapped(name, make):
    """An edit that puts `make(tensor)` in place of tensor `name`."""
    def edit(config, tensors):
        tensors[name] = make(tensors[name])
        return config, ModelWeights(tensors)
    return edit


def dropped(name):
    def edit(config, tensors):
        del tensors[name]
        return config, ModelWeights(tensors)
    return edit


def reconfigured(**changes):
    def edit(config, tensors):
        return replace(config, **changes), ModelWeights(tensors)
    return edit


def retyped(make_config=lambda config: config, make_weights=ModelWeights):
    """An edit that passes `make_config(config)` and `make_weights(tensors)`
    where a `ModelConfig` and a `ModelWeights` belong."""
    def edit(config, tensors):
        return make_config(config), make_weights(tensors)
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
    ("config a dict", "standard", retyped(make_config=lambda config: config.to_dict())),
    ("weights a dict", "standard", retyped(make_weights=lambda tensors: tensors)),
    ("tensors a list", "standard", retyped(make_weights=lambda t: ModelWeights(list(t.values())))),
    ("tensors None", "standard", retyped(make_weights=lambda tensors: ModelWeights(None))),
]


@pytest.fixture(params=MALFORMED, ids=[case[0] for case in MALFORMED])
def malformed(request):
    """(good config, good weights, bad config, bad weights, the message
    validate_weights gives for the bad model)."""
    _, norm_mode, edit = request.param
    config, weights = make_model(hidden_dim=D, ffn_dim=F, norm_mode=norm_mode)
    bad_config, bad_weights = edit(config, dict(weights.tensors))
    with pytest.raises(ValidationError) as expected:
        validate_weights(bad_config, bad_weights)
    return config, weights, bad_config, bad_weights, str(expected.value)


def dataset(config):
    return gen_dataset(6, 2, 8, config.vocab_size, seed=1)


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


def test_compare_refuses_before_any_fork(malformed, forks, monkeypatch):
    monkeypatch.setattr(similarity, "usable_cores", lambda: 2)
    config, weights, bad_config, bad_weights, message = malformed
    with pytest.raises(ValidationError) as err:
        compare_models(config, weights, bad_config, bad_weights, dataset(config), workers=2)
    assert str(err.value) == message
    assert forks == []


def test_apply_plan_refuses(malformed):
    _, _, bad_config, bad_weights, message = malformed
    with pytest.raises(ValidationError) as err:
        apply_plan(bad_config, bad_weights, PrunePlan(0.9, (1,), ((0, 1),)))
    assert str(err.value) == message


def test_forward_hidden_states_refuses(malformed):
    """The model is refused before the dataset is looked at, valid or not."""
    _, _, bad_config, bad_weights, message = malformed
    for data in [TokenDataset([[1, 2, 3]]), TokenDataset([[1, 99]]), object()]:
        with pytest.raises(ValidationError) as err:
            forward_hidden_states(bad_config, bad_weights, data)
        assert str(err.value) == message


def test_forward_hidden_states_refuses_a_row_block():
    """A hand-built block would skip the id checks: id 99 on a vocab-20 model
    once reached a raw IndexError inside the embedding lookup."""
    config, weights = make_model(hidden_dim=D, ffn_dim=F)
    for block in [RowBlock((([0], np.array([[99]])),)), RowBlock(None)]:
        with pytest.raises(ValidationError,
                           match=r"^dataset must be of type TokenDataset, got RowBlock$"):
            forward_hidden_states(config, weights, block)


def test_save_model_refuses(malformed, tmp_path):
    _, _, bad_config, bad_weights, message = malformed
    path = tmp_path / "model.ascm"
    with pytest.raises(ValidationError) as err:
        save_model(bad_config, bad_weights, path)
    assert str(err.value) == message
    assert not path.exists()


def test_message_names_a_non_array_by_type():
    """The message names the type, not the value: a nested list in place of
    a (1000, 256) tensor once gave a message of over five million characters."""
    config, weights = make_model(hidden_dim=256, vocab_size=1000)
    tensors = dict(weights.tensors)
    tensors["embed.token"] = tensors["embed.token"].tolist()
    with pytest.raises(ValidationError, match=r"'embed.token' is not an array, got list$") as err:
        check_model(config, ModelWeights(tensors))
    assert len(str(err.value)) < 200


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
    """A NaN that no sequence reaches is no entry's concern: only load_model
    and save_model scan every value."""
    config, good, bad, data = nan_model
    del data.sequences[-1]
    matrix = analyze(config, bad, data)
    assert np.array_equal(matrix.values, analyze(config, good, data).values)
    report = compare_models(config, bad, config, good, data)
    assert (report.mean_cosine, report.max_abs_diff) == (1.0, 0.0)
    pruned_config, _ = apply_plan(config, bad, PrunePlan(0.9, (1,), ((0, 1),)))
    assert pruned_config.num_layers == 1
    forward_hidden_states(config, bad, data)


SEQUENCES = [[1, 2, 3], [4, 5]]
PLAN_FIELDS = asdict(PrunePlan(0.9, (1,), ((0, 1),)))
CONFIG_FIELDS = make_model(hidden_dim=D, ffn_dim=F)[0].to_dict()

# (entry, the type it expects, raw data of that type, call(value, path, (config, weights)))
WRONG_TYPE = [
    ("row_blocks", TokenDataset, SEQUENCES, lambda v, path, model: row_blocks(v, model[0])),
    ("row_blocks config", ModelConfig, CONFIG_FIELDS,
     lambda v, path, model: row_blocks(TokenDataset(SEQUENCES), v)),
    ("row_blocks more_configs", ModelConfig, CONFIG_FIELDS,
     lambda v, path, model: row_blocks(TokenDataset(SEQUENCES), model[0], v)),
    ("save_dataset", TokenDataset, SEQUENCES, lambda v, path, model: save_dataset(v, path)),
    ("plan", SimilarityMatrix, np.eye(2), lambda v, path, model: plan(v, 0.9)),
    ("write_matrix_csv", SimilarityMatrix, np.eye(2),
     lambda v, path, model: write_matrix_csv(v, path)),
    ("write_pgm", SimilarityMatrix, np.eye(2), lambda v, path, model: write_pgm(v, path)),
    ("apply_plan", PrunePlan, PLAN_FIELDS, lambda v, path, model: apply_plan(*model, v)),
    ("write_plan", PrunePlan, PLAN_FIELDS, lambda v, path, model: write_plan(v, path)),
    ("forward_hidden_states", TokenDataset, SEQUENCES,
     lambda v, path, model: forward_hidden_states(*model, v)),
]


@pytest.mark.parametrize("form", ["None", "object", "raw"])
@pytest.mark.parametrize("entry", WRONG_TYPE, ids=[case[0] for case in WRONG_TYPE])
def test_wrong_type_refused_by_name(entry, form, tmp_path):
    """Each entry that takes a package object refuses any other type by
    naming the type it expects, before a writer opens its file."""
    _, cls, raw, call = entry
    value = {"None": None, "object": object(), "raw": raw}[form]
    with pytest.raises(ValidationError,
                       match=rf" must be of type {cls.__name__}, got {type(value).__name__}$"):
        call(value, tmp_path / "out", make_model(hidden_dim=D, ffn_dim=F))
    assert list(tmp_path.iterdir()) == []


def test_row_blocks_refuses_what_config_validate_refuses():
    """A `ModelConfig` whose max_seq_len is None would reach a raw `>` comparison."""
    config, _ = make_model(hidden_dim=D, ffn_dim=F)
    for bad in [replace(config, max_seq_len=None), replace(config, vocab_size=0)]:
        with pytest.raises(ValidationError, match=r"^config: (max_seq_len|vocab_size) must be"):
            row_blocks(TokenDataset(SEQUENCES), config, bad)


def test_apply_plan_refuses_what_plan_validate_refuses():
    """Layer 2 with no anchor behind it: a plan `write_plan` would refuse too."""
    config, weights = make_model(hidden_dim=D, ffn_dim=F)
    with pytest.raises(ValidationError, match="do not match anchor blocks"):
        apply_plan(config, weights, PrunePlan(0.5, (2,), ()))


def public_functions() -> list:
    return [name for name in asc.__all__ if inspect.isfunction(getattr(asc, name))]


@pytest.fixture
def valid_arguments(tmp_path):
    """A valid value for each parameter name of a public function, on one tiny model."""
    config, weights = make_model(hidden_dim=D, ffn_dim=F)
    data = TokenDataset([[1, 2, 3], [4, 5]])
    matrix = analyze(config, weights, data)
    the_plan = plan(matrix, 0.9)
    return {
        "config": config, "weights": weights, "config_a": config, "weights_a": weights,
        "config_b": config, "weights_b": weights, "dataset": data, "workers": 1,
        "sim": matrix, "matrix": matrix, "threshold": 0.9, "matrix_fingerprint": None,
        "plan": the_plan, "plan_obj": the_plan,
        "num_layers": 2, "hidden_dim": D, "num_heads": 2, "ffn_dim": F, "vocab_size": 20,
        "identity_layers": [1], "seed": 0, "max_seq_len": 16, "num_sequences": 3,
        "min_len": 1, "max_len": 4, "count": 1, "path": tmp_path / "out",
    }


@pytest.mark.parametrize("name", public_functions())
def test_every_public_function_refuses_a_wrong_type(name, valid_arguments):
    """Walks `asc.__all__`: a call that works becomes an `AscError`, never a
    raw AttributeError or TypeError, when any one argument but `path` is an
    `object()`. A new public function is covered once its parameter names
    are in `valid_arguments`."""
    function = getattr(asc, name)
    names = list(inspect.signature(function).parameters)
    unknown = [p for p in names if p not in valid_arguments]
    assert unknown == [], f"give valid_arguments a value for {name}'s {unknown}"
    replaced = [p for p in names if p != "path"]
    if not replaced:  # the loaders take a path only
        return
    call = {p: valid_arguments[p] for p in names}
    function(**call)
    for parameter in replaced:
        with pytest.raises(AscError):
            function(**{**call, parameter: object()})
