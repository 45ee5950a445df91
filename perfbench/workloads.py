"""Benchmark workloads: fixed model shapes, input sizes and sweep thresholds.

Each workload runs the same stage sequence (set-up, analyze with one
worker, analyze with `nproc` workers, plan+prune, compare, threshold
sweep); the shapes decide which layer dominates.

A workload seed selects one of GOLDEN_SEEDS recorded input sets
(seed mod GOLDEN_SEEDS). The same seed always gives the same model and
datasets, and every input set has recorded golden outputs, so every run
checks its outputs.
"""

from dataclasses import dataclass

GOLDEN_SEEDS = 32
BAND_SEED_STRIDE = 10000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    layers: int
    hidden_dim: int
    heads: int
    ffn_dim: int
    vocab: int
    max_seq_len: int
    identity: tuple
    # analysis set: one `asc gen-data` call per (sequences, min_len, max_len)
    # band, concatenated in order
    analysis: tuple
    # held-out set for compare and the sweep
    heldout: int
    heldout_min_len: int
    heldout_max_len: int
    # thresholds of the drop-n sweep loop, in order
    thresholds: tuple
    # plan+prune calls per round, so short prunes give enough samples
    prune_repeats: int
    # set-up repetitions per run; setup_s is their median
    setup_repeats: int


@dataclass(frozen=True)
class InputSeeds:
    """`index` is the input set; it also seeds the model and the random plan.
    Analysis band `k` is generated with seed `data + BAND_SEED_STRIDE * k`."""

    index: int
    data: int
    heldout: int


def input_seeds(seed: int) -> InputSeeds:
    """Seeds of the generated inputs for a workload seed."""
    s = seed % GOLDEN_SEEDS
    return InputSeeds(index=s, data=1000 + s, heldout=2000 + s)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="wide",
            why="small-BERT shape with 128-token sequences: GEMM and GELU FLOPs dominate, "
                "and the 39 MB model puts load/validate/save into prune_s",
            layers=12, hidden_dim=256, heads=8, ffn_dim=1024, vocab=1000, max_seq_len=128,
            identity=(4, 5, 9),
            analysis=((4, 128, 128),),
            heldout=1, heldout_min_len=128, heldout_max_len=128,
            thresholds=(0.999,),
            prune_repeats=3,
            setup_repeats=5,
        ),
        Workload(
            name="narrow",
            why="README shape with many 8-32 token sequences: per-call Python overhead on tiny "
                "arrays dominates, so batching and length bucketing show here",
            layers=6, hidden_dim=32, heads=4, ffn_dim=64, vocab=100, max_seq_len=32,
            identity=(2, 3),
            analysis=((250, 8, 32),),
            heldout=120, heldout_min_len=8, heldout_max_len=32,
            thresholds=(0.999,),
            prune_repeats=10,
            setup_repeats=9,
        ),
        Workload(
            name="sweep",
            why="drop-n sweep over five thresholds: held-out inputs re-run through the original "
                "model and many pruned models written and read back",
            layers=16, hidden_dim=64, heads=4, ffn_dim=256, vocab=500, max_seq_len=64,
            identity=(3, 4, 7, 8, 9, 13),
            # lengths 16-64 in fixed-size bands: with 2 workers on a 2-core
            # OpenBLAS host, 62-64 token sequences run ~2x slower per token
            # than shorter ones (BLAS threads oversubscribe the cores), so a
            # random share of them made analyze_parallel_tok_s depend on the seed
            analysis=((12, 16, 31), (12, 32, 47), (12, 48, 61), (4, 62, 64)),
            # fixed-length held-out set: sweep_s is an absolute time, so its
            # token count must not change with the seed
            heldout=3, heldout_min_len=64, heldout_max_len=64,
            thresholds=(0.999, 0.5, 0.45, 0.4, 0.35),
            prune_repeats=5,
            setup_repeats=9,
        ),
    )
}
