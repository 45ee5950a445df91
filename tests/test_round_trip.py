"""Every writer refuses exactly what its loader refuses.

For each writer a valid object loads back equal. A copy with one field, or
one element of a field, swapped for a value of another type is either
written and loads back equal, or refused with ValidationError before any
file exists; never written as a file its loader refuses, and never a
TypeError or other stray exception. A dataset that `save_dataset` refuses
is refused the same way by everything that runs one through a model.
"""

import os
from dataclasses import fields, replace

import numpy as np
import pytest

from asc import similarity
from asc.data import TokenDataset, load_dataset, row_blocks, save_dataset
from asc.errors import ValidationError
from asc.model import ModelWeights, load_model, save_model
from asc.planner import MODE_RANDOM, PrunePlan, load_plan, plan_random, write_plan
from asc.similarity import SimilarityMatrix, analyze, load_matrix_csv, write_matrix_csv
from asc.surgery import compare_models
from conftest import make_model, other_typed

HUGE = 10 ** 5000  # more digits than str() and int() convert; no loader reads it


def swaps(value):
    """(label, swapped) for `value` replaced whole, or one element of it at
    any depth, by a value of another type. A list never stands in for a
    tuple: both are one JSON array."""
    others = [c for c in other_typed(value)
              if not (isinstance(value, tuple) and isinstance(c, list))]
    if type(value) is int:
        others.append(np.int64(value))
    for other in others:
        yield f"={other!r}", other
    if isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            for label, other in swaps(item):
                yield f"[{i}]{label}", value[:i] + type(value)([other]) + value[i + 1:]


def field_swaps(obj, build=lambda obj: obj):
    """(label, factory) for each one-part swap of each dataclass field of
    `obj`; `build` turns the swapped dataclass into what the writer takes."""
    for f in fields(obj):
        for label, other in swaps(getattr(obj, f.name)):
            yield f.name + label, lambda name=f.name, other=other: build(replace(obj, **{name: other}))


def check_writer(tmp_path, write, load, same, valid, cases):
    """Run `valid` and each (label, factory) case through `write` and `load`;
    return the labels that broke the rule, with what happened."""
    path = tmp_path / "out"
    broken = []
    for label, factory in [("valid", lambda: valid), *cases]:
        try:
            obj = factory()
            write(obj, path)
        except ValidationError:
            if label == "valid" or list(tmp_path.iterdir()):
                broken.append(f"{label}: refused or left a file")
            continue
        except Exception as exc:  # noqa: BLE001 - the rule is that nothing else escapes
            broken.append(f"{label}: write raised {exc!r}")
            continue
        try:
            if not same(load(path), obj):
                broken.append(f"{label}: loads back different")
        except Exception as exc:  # noqa: BLE001
            broken.append(f"{label}: load raised {exc!r}")
        path.unlink()
    return broken


def test_save_model(tmp_path):
    config, weights = make_model(num_layers=1, hidden_dim=4, num_heads=2, ffn_dim=8,
                                 vocab_size=6, max_seq_len=5)
    cases = list(field_swaps(config, build=lambda c: (c, weights)))
    for name in ("embed.token", "layer.0.ffn.w1"):
        cases += [(f"{name}{label}", lambda name=name, other=other:
                   (config, ModelWeights({**weights.tensors, name: other})))
                  for label, other in swaps(weights[name])]

    def same(got, want):
        return got[0] == want[0] and all(
            got[1][name].tobytes() == tensor.tobytes() for name, tensor in want[1].tensors.items())

    assert check_writer(tmp_path, lambda obj, path: save_model(*obj, path), load_model, same,
                        (config, weights), cases) == []


def test_write_plan(tmp_path):
    asc_plan = PrunePlan(threshold=0.9, redundant_layers=(2, 3), anchors=((1, 3),),
                         matrix_fingerprint="deadbeef")
    random_plan = PrunePlan(threshold=0.0, redundant_layers=(2, 3), anchors=(),
                            mode=MODE_RANDOM, seed=5)
    for valid in (asc_plan, random_plan):
        assert check_writer(tmp_path, write_plan, load_plan, lambda got, want: got == want,
                            valid, field_swaps(valid)) == []


def test_write_matrix_csv(tmp_path):
    matrix = SimilarityMatrix(values=np.array([[1.0, 0.25], [0.25, 1.0]]), token_count=10)

    def same(got, want):
        return np.array_equal(got.values, want.values) and got.token_count == want.token_count

    assert check_writer(tmp_path, write_matrix_csv, load_matrix_csv, same, matrix,
                        field_swaps(matrix)) == []


DATASET = TokenDataset([[1, 2], [3]])
# (label, factory) of datasets that no dataset file holds
DATASET_REFUSALS = [*field_swaps(DATASET),
                    ("empty sequence", lambda: TokenDataset([[1, 2], [], [3]])),
                    ("negative id", lambda: TokenDataset([[1, -2], [3]])),
                    ("tuple sequence", lambda: TokenDataset([(1, 2), [3]])),
                    ("tuple sequences", lambda: TokenDataset([(1, 2), (3,)])),
                    ("int sequence", lambda: TokenDataset([5])),
                    ("no sequences", lambda: TokenDataset(None)),
                    ("id beyond digit limit", lambda: TokenDataset([[1, HUGE]]))]


def test_save_dataset(tmp_path):
    assert check_writer(tmp_path, save_dataset, load_dataset,
                        lambda got, want: got.sequences == want.sequences, DATASET,
                        DATASET_REFUSALS) == []


CONFIG, WEIGHTS = make_model(num_layers=1)
DATASET_READERS = {
    "row_blocks": lambda dataset: row_blocks(dataset, CONFIG),
    "analyze": lambda dataset: analyze(CONFIG, WEIGHTS, dataset),
    "analyze --workers 2": lambda dataset: analyze(CONFIG, WEIGHTS, dataset, workers=2),
    "compare_models": lambda dataset: compare_models(CONFIG, WEIGHTS, CONFIG, WEIGHTS, dataset),
}


@pytest.mark.parametrize("reader", list(DATASET_READERS))
def test_dataset_refused_alike_by_every_reader(tmp_path, monkeypatch, reader):
    """Each dataset that `save_dataset` refuses gets its ValidationError, word
    for word, from `row_blocks`, `analyze` (1 and 2 workers) and
    `compare_models`, before any file or child process exists."""
    read = DATASET_READERS[reader]
    monkeypatch.setattr(similarity, "usable_cores", lambda: 2)
    read(DATASET)

    def forked():
        raise AssertionError("forked a worker")

    monkeypatch.setattr(os, "fork", forked)
    broken = []
    for label, factory in DATASET_REFUSALS:
        try:
            save_dataset(factory(), tmp_path / "out")
            broken.append(f"{label}: saved")
            continue
        except ValidationError as exc:
            refusal = str(exc)
        try:
            read(factory())
            broken.append(f"{label}: accepted")
        except ValidationError as exc:
            if str(exc) != refusal:
                broken.append(f"{label}: said {exc} instead of {refusal}")
        except Exception as exc:  # noqa: BLE001 - the rule is that nothing else escapes
            broken.append(f"{label}: raised {exc!r}")
    assert broken == []
    assert list(tmp_path.iterdir()) == []


def _huge_int_cases():
    config, weights = make_model(num_layers=1)
    matrix = np.array([[1.0, 0.25], [0.25, 1.0]])
    return {
        "dataset id": lambda path: save_dataset(TokenDataset([[1, HUGE]]), path),
        "matrix token_count": lambda path: write_matrix_csv(SimilarityMatrix(matrix, HUGE), path),
        "random plan seed": lambda path: write_plan(plan_random(5, 2, HUGE), path),
        "plan seed": lambda path: write_plan(
            PrunePlan(0.0, (1,), (), mode=MODE_RANDOM, seed=HUGE), path),
        "plan layer": lambda path: write_plan(
            PrunePlan(0.0, (HUGE,), (), mode=MODE_RANDOM, seed=1), path),
        "plan threshold": lambda path: write_plan(PrunePlan(HUGE, (), ()), path),
        "config size": lambda path: save_model(replace(config, vocab_size=HUGE), weights, path),
        "config layer_ids": lambda path: save_model(replace(config, layer_ids=(HUGE,)), weights,
                                                    path),
    }


@pytest.mark.parametrize("case", list(_huge_int_cases()))
def test_int_beyond_digit_limit_refused(tmp_path, case):
    """An int too long for str() is a ValidationError before any file exists,
    not the interpreter's raw ValueError."""
    with pytest.raises(ValidationError):
        _huge_int_cases()[case](tmp_path / "out")
    assert list(tmp_path.iterdir()) == []
