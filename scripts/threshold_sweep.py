"""End-to-end demo: synthesize a model with planted passthrough layers,
analyze layer similarity once, then plan and prune at each threshold.

Prints the similarity matrix, then one row per threshold: the pruned
layers, the anchor pairs that justify them, and the held-out mean cosine
of the pruned model beside a random-removal baseline of matched size.

Usage:
    python scripts/threshold_sweep.py --layers 6 --identity 2,3 --thresholds 0.9,0.999
"""

import argparse

from asc import (
    analyze,
    apply_plan,
    compare_models,
    gen_dataset,
    gen_model,
    plan,
    plan_random,
)
from asc.similarity import usable_cores


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--layers", type=int, default=8)
    parser.add_argument("--hidden-dim", type=int, default=32)
    parser.add_argument("--heads", type=int, default=4)
    parser.add_argument("--ffn-dim", type=int, default=64)
    parser.add_argument("--vocab", type=int, default=100)
    parser.add_argument("--identity", default="3,4,6",
                        help="comma-separated encoder layers planted as exact passthroughs")
    parser.add_argument("--thresholds", default="0.8,0.85,0.9,0.99,0.999")
    parser.add_argument("--sequences", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    identity = [int(p) for p in args.identity.split(",") if p.strip()]
    thresholds = [float(t) for t in args.thresholds.split(",")]

    config, weights = gen_model(
        num_layers=args.layers, hidden_dim=args.hidden_dim, num_heads=args.heads,
        ffn_dim=args.ffn_dim, vocab_size=args.vocab, identity_layers=identity,
        seed=args.seed, max_seq_len=32,
    )
    train = gen_dataset(args.sequences, 8, 32, args.vocab, seed=args.seed + 1)
    heldout = gen_dataset(args.sequences, 8, 32, args.vocab, seed=args.seed + 2)
    matrix = analyze(config, weights, train, workers=4)
    print(f"{args.layers}-layer model, identity layers {identity or 'none'}, "
          f"similarity matrix over {matrix.token_count} analysis tokens:")
    for row in matrix.values:
        print("  " + " ".join(f"{v:6.3f}" for v in row))
    print()
    print(f"{'threshold':>10} {'pruned':>7} {'layers':<16} {'anchors':<16} {'mean cos':>9} "
          f"{'rand mean cos':>14}")

    workers = usable_cores()  # the reports are the same at every worker count
    for threshold in thresholds:
        result = plan(matrix, threshold)
        pruned_config, pruned_weights = apply_plan(config, weights, result)
        report = compare_models(config, weights, pruned_config, pruned_weights, heldout,
                                workers=workers)
        count = len(result.redundant_layers)
        baseline = plan_random(args.layers, count, seed=args.seed + 3)
        base_config, base_weights = apply_plan(config, weights, baseline)
        base_report = compare_models(config, weights, base_config, base_weights, heldout,
                                     workers=workers)
        layers = ",".join(str(i) for i in result.redundant_layers) or "-"
        anchors = " ".join(f"{i}-{j}" for i, j in result.anchors) or "-"
        print(f"{threshold:>10} {count:>7} {layers:<16} {anchors:<16} {report.mean_cosine:>9.5f} "
              f"{base_report.mean_cosine:>14.5f}")


if __name__ == "__main__":
    main()
