"""Physically remove redundant layers and measure the damage.

Surgery never mutates its input: it returns a new (config, weights) pair
in which surviving layers keep their tensors bit-exactly and are
renumbered consecutively from 0, while config.layer_ids tracks each
survivor's original index.
"""

from dataclasses import dataclass, replace

import numpy as np

from .data import length_batches
from .errors import ValidationError
from .forward import final_hidden_state
from .model import ModelWeights, tensor_shapes
from .tensor_ops import unit_rows


def apply_plan(config, weights, plan):
    """Drop the plan's redundant layers and renumber the survivors."""
    num_layers = config.num_layers
    bad = [i for i in plan.redundant_layers if not 1 <= i <= num_layers]
    if bad:
        raise ValidationError(
            f"plan names layers {bad} outside this model's range 1..{num_layers}"
        )

    removed = set(plan.redundant_layers)
    survivors = [e for e in range(1, num_layers + 1) if e not in removed]
    new_config = replace(
        config,
        num_layers=len(survivors),
        layer_ids=tuple(config.layer_ids[e - 1] for e in survivors),
    )
    tensors = {}
    for name in tensor_shapes(new_config):
        source = name
        if name.startswith("layer."):
            # slot k of the pruned model is encoder layer survivors[k]
            _, slot, suffix = name.split(".", 2)
            source = f"layer.{survivors[int(slot)] - 1}.{suffix}"
        tensors[name] = weights[source]
    return new_config, ModelWeights(tensors)


@dataclass
class DivergenceReport:
    """Final-layer agreement between two models over a dataset."""

    token_count: int
    mean_cosine: float
    min_cosine: float
    max_abs_diff: float


def compare_models(config_a, weights_a, config_b, weights_b, dataset) -> DivergenceReport:
    """Per-token cosine and max-abs-difference between final-layer outputs."""
    if config_a.hidden_dim != config_b.hidden_dim:
        raise ValidationError(
            f"models have different hidden dims: {config_a.hidden_dim} vs {config_b.hidden_dim}"
        )
    if dataset.total_tokens == 0:
        raise ValidationError("cannot compare over an empty dataset (0 tokens)")

    seq_sums = [0.0] * len(dataset)
    cos_min = np.inf
    diff_max = 0.0
    d = config_a.hidden_dim
    for indices, ids in length_batches(dataset.sequences, config_a, config_b):
        out_a = final_hidden_state(config_a, weights_a, ids).reshape(-1, d).astype(np.float64)
        out_b = final_hidden_state(config_b, weights_b, ids).reshape(-1, d).astype(np.float64)
        unit_a = unit_rows(out_a)
        cos = np.einsum("nd,nd->n", unit_a, unit_rows(out_b))
        # bit-identical live rows (non-zero unit vectors) score exactly 1,
        # so comparing a model with itself reads mean 1.0 / max diff 0
        # instead of 1 - ulp
        cos[unit_a.any(axis=1) & np.all(out_a == out_b, axis=1)] = 1.0
        np.clip(cos, -1.0, 1.0, out=cos)
        for i, seq_cos in zip(indices, cos.reshape(len(indices), -1)):
            seq_sums[i] = seq_cos.sum()
        cos_min = min(cos_min, cos.min())
        diff_max = max(diff_max, np.abs(out_a - out_b).max())
    # summed per sequence, in dataset order, whatever the batching
    cos_sum = sum(seq_sums)
    count = dataset.total_tokens
    return DivergenceReport(
        token_count=count,
        mean_cosine=float(cos_sum / count),
        min_cosine=float(cos_min),
        max_abs_diff=float(diff_max),
    )
