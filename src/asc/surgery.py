"""Physically remove redundant layers and measure the damage.

Surgery never mutates its input: it returns a new (config, weights) pair
in which surviving layers keep their tensors bit-exactly and are
renumbered consecutively from 0, while config.layer_ids tracks each
survivor's original index.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import similarity
from .data import row_blocks
from .errors import ValidationError, require_int, require_type
from .forward import embed, encoder_layer, hidden_states
from .model import ModelWeights, check_model, layer_shapes
from .planner import PrunePlan
from .tensor_ops import unit_rows


def apply_plan(config, weights, plan):
    """Drop a valid plan's redundant layers (each >= 1) and renumber the survivors."""
    check_model(config, weights)
    plan = require_type("plan", plan, PrunePlan).validate()
    num_layers = config.num_layers
    bad = [i for i in plan.redundant_layers if i > num_layers]
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
    tensors = {name: weights[name] for name in ("embed.token", "embed.pos")}
    suffixes = layer_shapes(config)
    # slot k of the pruned model is encoder layer survivors[k]
    for slot, encoder_index in enumerate(survivors):
        for suffix in suffixes:
            tensors[f"layer.{slot}.{suffix}"] = weights[f"layer.{encoder_index - 1}.{suffix}"]
    return new_config, ModelWeights(tensors)


@dataclass
class DivergenceReport:
    """Final-layer agreement between two models over a dataset."""

    token_count: int
    mean_cosine: float
    min_cosine: float
    max_abs_diff: float


def _same_bits(x, y) -> bool:
    """True when two float32 arrays hold the same bits (0.0 and -0.0 differ)."""
    return x is y or (x.shape == y.shape and x.dtype == y.dtype
                      and np.array_equal(x.view(np.uint32), y.view(np.uint32)))


def _shared_with(config_a, weights_a, config_b, weights_b):
    """What B can take from A's states: (same embedding?, {B slot: A slot}).

    A slot pairs with B's slot when it has the same layer id and bit-equal
    tensors; nothing pairs unless both run layers alike (norm mode, heads).
    """
    if (config_a.norm_mode, config_a.num_heads) != (config_b.norm_mode, config_b.num_heads):
        return False, {}
    same_embed = all(_same_bits(weights_a[name], weights_b[name])
                     for name in ("embed.token", "embed.pos"))
    slot_a = {layer_id: k for k, layer_id in enumerate(config_a.layer_ids)}
    pairs = {s: slot_a[i] for s, i in enumerate(config_b.layer_ids) if i in slot_a}
    suffixes = layer_shapes(config_b)
    return same_embed, {s: k for s, k in pairs.items() if all(
        _same_bits(weights_b[f"layer.{s}.{x}"], weights_a[f"layer.{k}.{x}"]) for x in suffixes)}


def compare_models(config_a, weights_a, config_b, weights_b, dataset,
                   workers: int = 1) -> DivergenceReport:
    """Per-token cosine and max-abs-difference between final-layer outputs.

    The dataset is checked against both models and runs in row blocks
    (`data.row_blocks`), dealt to shards as `analyze` deals them. A runs
    once per block and keeps every state. Where B's slot holds one of A's
    layers (same id, same tensor bits) and B's input to it has the bits of
    that layer's input in A, B takes A's output instead of running the
    layer: the same tensors on the same bits give the same bits. Both models
    are checked once, before any fork, and a NaN or inf final state is
    refused, not reported. Cosines are summed per sequence, then in dataset
    order, so the report is the same bit for bit at every worker count.
    """
    workers = require_int("workers", workers, 1)
    check_model(config_a, weights_a)
    check_model(config_b, weights_b)
    if config_a.hidden_dim != config_b.hidden_dim:
        raise ValidationError(
            f"models have different hidden dims: {config_a.hidden_dim} vs {config_b.hidden_dim}"
        )
    pool = min(workers, similarity.usable_cores())
    blocks = row_blocks(dataset, config_a, config_b, workers=pool)
    if not blocks:
        raise ValidationError("cannot compare over an empty dataset (0 tokens)")
    same_embed, pairs = _shared_with(config_a, weights_a, config_b, weights_b)

    def run_shard(shard):
        """({sequence index: cosine sum}, min cosine, max abs diff) of a shard's blocks."""
        seq_sums, cos_min, diff_max = {}, np.inf, 0.0
        for block in shard:
            states_a = hidden_states(config_a, weights_a, block)
            state = states_a[0] if same_embed else embed(config_b, weights_b, block)
            for s in range(config_b.num_layers):
                k = pairs.get(s)
                if k is not None and _same_bits(state, states_a[k]):
                    state = states_a[k + 1]
                else:
                    state = encoder_layer(config_b, weights_b, s, state, block.segments)
            out_a = states_a[-1].astype(np.float64)
            out_b = state.astype(np.float64)
            if not (np.isfinite(out_a).all() and np.isfinite(out_b).all()):
                raise ValidationError("the models' final-layer states hold non-finite values")
            unit_a = unit_rows(out_a)
            cos = np.einsum("nd,nd->n", unit_a, unit_rows(out_b))
            # bit-identical live rows (non-zero unit vectors) score exactly 1,
            # so comparing a model with itself reads mean 1.0 / max diff 0
            # instead of 1 - ulp
            cos[unit_a.any(axis=1) & np.all(out_a == out_b, axis=1)] = 1.0
            np.clip(cos, -1.0, 1.0, out=cos)
            for i, seq_cos in block.split(cos):
                seq_sums[i] = seq_cos.sum()
            cos_min = min(cos_min, cos.min())
            diff_max = max(diff_max, np.abs(out_a - out_b).max())
        return seq_sums, cos_min, diff_max

    seq_sums, cos_min, diff_max = {}, np.inf, 0.0
    for shard_sums, shard_min, shard_max in similarity._map_shards(run_shard, blocks, pool):
        seq_sums.update(shard_sums)
        cos_min, diff_max = min(cos_min, shard_min), max(diff_max, shard_max)
    # summed per sequence, in dataset order, whatever the blocks and shards
    cos_sum = sum(seq_sums[i] for i in range(len(dataset)))
    count = dataset.total_tokens
    return DivergenceReport(
        token_count=count,
        mean_cosine=float(cos_sum / count),
        min_cosine=float(cos_min),
        max_abs_diff=float(diff_max),
    )
