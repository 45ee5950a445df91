"""`tensor_ops.softmax_rows` clamps max-shifted scores at `EXP_FLOOR`. On a
model whose attention scores fall far below the floor, every output the
forward pass reaches is byte-identical to that of the unclamped softmax."""

import dataclasses

import numpy as np

from asc import planner, similarity, surgery, synth, tensor_ops
from oracles import sequence_states, unclamped_softmax_rows


def outputs(config, weights, dataset):
    """The bytes of the analyze matrix at workers 1 and 2, of a planted and a
    random-plan compare report, and of every sequence's hidden states."""
    matrices = [similarity.analyze(config, weights, dataset, workers=w) for w in (1, 2)]
    planted = planner.plan(matrices[0], 0.999)
    assert planted.redundant_layers == (3,)
    got = [matrix.values.tobytes() for matrix in matrices]
    for the_plan in (planted, planner.plan_random(config.num_layers, 4, seed=0)):
        pruned = surgery.apply_plan(config, weights, the_plan)
        report = surgery.compare_models(config, weights, *pruned, dataset)
        got.append(np.array(dataclasses.astuple(report), dtype=np.float64).tobytes())
    got += [np.stack(sequence_states(config, weights, tokens)).tobytes()
            for tokens in dataset.sequences]
    return got


def test_outputs_byte_identical_to_unclamped_softmax(monkeypatch, forks):
    # norm-free, so hidden norms and score spreads grow with depth
    config, weights = synth.gen_model(10, 16, 2, 32, 50, (3,), 5, 48)
    dataset = synth.gen_dataset(30, 8, 48, 50, 6)
    monkeypatch.setattr(similarity, "usable_cores", lambda: 2)
    clamped = outputs(config, weights, dataset)

    lanes = {"below": 0, "all": 0}

    def counting_oracle(x):
        shifted = x.astype(np.float64)
        shifted -= shifted.max(axis=-1, keepdims=True)
        lanes["below"] += int(np.count_nonzero(shifted < tensor_ops.EXP_FLOOR))
        lanes["all"] += shifted.size
        return unclamped_softmax_rows(x)

    monkeypatch.setattr(tensor_ops, "softmax_rows", counting_oracle)
    unclamped = outputs(config, weights, dataset)
    assert len(forks) == 2
    assert lanes["below"] > 0.25 * lanes["all"]
    assert len(clamped) == len(unclamped) == 4 + len(dataset)
    for got, want in zip(clamped, unclamped):
        assert got == want
