"""Command-line pipeline: synth / gen-data / analyze / plan / prune /
random-prune / render / compare / forward.

Every command is deterministic given identical inputs, flags, and seeds.
Output files are written atomically, so a failing command leaves nothing
partial behind; exit code 0 means all outputs were written.
"""

import argparse
import re
import string
import sys

from . import data, heatmap, model, planner, similarity, surgery, synth
from .errors import AscError, ValidationError
from .fileio import atomic_write, sha256_file
from .forward import hidden_states

# ASCII decimal digits, as the file loaders read ints; int() alone would also
# take "1_0", " 2", "+2" and non-ASCII digits. A sign is read so that a
# negative value reaches the check that names its bound.
_INT_RE = re.compile(r"-?[0-9]+", re.ASCII)


def _int_arg(text: str) -> int:
    try:
        if _INT_RE.fullmatch(text):
            return int(text)
    except ValueError:  # beyond the interpreter's digit limit
        pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _float_arg(text: str) -> float:
    if not similarity.CSV_VALUE_RE.fullmatch(text):
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    return float(text)


def _cmd_synth(args):
    parts = [part.strip(string.whitespace) for part in args.identity_layers.split(",")]
    try:
        identity = [_int_arg(part) for part in parts if part]
    except argparse.ArgumentTypeError as exc:
        raise ValidationError(
            f"--identity-layers must be comma-separated integers, got {args.identity_layers!r}"
        ) from exc
    config, weights = synth.gen_model(
        num_layers=args.layers,
        hidden_dim=args.hidden_dim,
        num_heads=args.heads,
        ffn_dim=args.ffn_dim,
        vocab_size=args.vocab,
        identity_layers=identity,
        seed=args.seed,
        max_seq_len=args.max_seq_len,
    )
    model.save_model(config, weights, args.out)
    print(
        f"wrote model: {args.out} (layers={config.num_layers}, hidden_dim={config.hidden_dim}, "
        f"identity_layers={sorted(identity) or '-'})"
    )


def _cmd_gen_data(args):
    dataset = synth.gen_dataset(
        num_sequences=args.sequences,
        min_len=args.min_len,
        max_len=args.max_len,
        vocab_size=args.vocab,
        seed=args.seed,
    )
    data.save_dataset(dataset, args.out)
    print(f"wrote dataset: {args.out} (sequences={len(dataset)}, tokens={dataset.total_tokens})")


def _cmd_analyze(args):
    config, weights = model.load_model(args.model)
    dataset = data.load_dataset(args.data)
    matrix = similarity.analyze(config, weights, dataset, workers=args.workers)
    similarity.write_matrix_csv(matrix, args.out)
    print(f"wrote similarity matrix: {args.out} (layers={matrix.size}, tokens={matrix.token_count})")


def _cmd_plan(args):
    matrix = similarity.load_matrix_csv(args.sim)
    fingerprint = sha256_file(args.sim)
    result = planner.plan(matrix, args.threshold, matrix_fingerprint=fingerprint)
    planner.write_plan(result, args.out)
    pruned = result.redundant_layers
    summary = f"{len(pruned)} layers pruned"
    if pruned:
        summary += ": " + ",".join(str(i) for i in pruned)
        summary += " (anchors: " + " ".join(f"{i}-{j}" for i, j in result.anchors) + ")"
    print(summary)


def _apply_and_save(config, weights, plan_obj, out_path):
    new_config, new_weights = surgery.apply_plan(config, weights, plan_obj)
    model.save_model(new_config, new_weights, out_path)
    removed = [config.layer_ids[e - 1] for e in plan_obj.redundant_layers]
    print(
        f"wrote pruned model: {out_path} ({new_config.num_layers} layers kept, "
        f"removed original layers: {','.join(str(i) for i in removed) or '-'})"
    )
    if new_config.num_layers == 0:
        print("note: all encoder layers pruned; output is an embedding-only model")


def _cmd_prune(args):
    config, weights = model.load_model(args.model)
    plan_obj = planner.load_plan(args.plan)
    _apply_and_save(config, weights, plan_obj, args.out)


def _cmd_random_prune(args):
    config, weights = model.load_model(args.model)
    plan_obj = planner.plan_random(config.num_layers, args.count, args.seed)
    _apply_and_save(config, weights, plan_obj, args.out)


def _cmd_render(args):
    matrix = similarity.load_matrix_csv(args.sim)
    heatmap.write_pgm(matrix, args.out)
    print(f"wrote heatmap: {args.out} ({matrix.size}x{matrix.size} pgm)")


def _cmd_compare(args):
    config_a, weights_a = model.load_model(args.model_a)
    config_b, weights_b = model.load_model(args.model_b)
    dataset = data.load_dataset(args.data)
    # the report is the same at every worker count, so compare takes no --workers
    report = surgery.compare_models(config_a, weights_a, config_b, weights_b, dataset,
                                    workers=similarity.usable_cores())
    print(f"tokens: {report.token_count}")
    print(f"mean_cosine: {report.mean_cosine!r}")
    print(f"min_cosine: {report.min_cosine!r}")
    print(f"max_abs_diff: {report.max_abs_diff!r}")


def _cmd_forward(args):
    config, weights = model.load_model(args.model)  # checks the model once, for all blocks
    dataset = data.load_dataset(args.data)
    finals = [None] * len(dataset)
    # keeps final layers only; forward_hidden_states would hold all L+1 of every sequence
    for block in data.row_blocks(dataset, config):
        for i, final in block.split(hidden_states(config, weights, block)[-1]):
            finals[i] = final
    with atomic_write(args.out) as handle:
        for final in finals:
            for row in final:
                handle.write(",".join(repr(float(v)) for v in row))
                handle.write("\n")
    print(f"wrote embeddings: {args.out} (tokens={dataset.total_tokens}, dim={config.hidden_dim})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asc",
        description="Analyze layer similarity of an encoder model over a dataset and prune redundant layers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic model with planted identity layers")
    p.add_argument("--layers", type=_int_arg, required=True)
    p.add_argument("--hidden-dim", type=_int_arg, required=True)
    p.add_argument("--heads", type=_int_arg, required=True)
    p.add_argument("--ffn-dim", type=_int_arg, required=True)
    p.add_argument("--vocab", type=_int_arg, required=True)
    p.add_argument("--max-seq-len", type=_int_arg, default=128)
    p.add_argument("--identity-layers", default="", help="comma-separated encoder indices (1-based)")
    p.add_argument("--seed", type=_int_arg, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("gen-data", help="generate a random token dataset")
    p.add_argument("--sequences", type=_int_arg, required=True)
    p.add_argument("--min-len", type=_int_arg, required=True)
    p.add_argument("--max-len", type=_int_arg, required=True)
    p.add_argument("--vocab", type=_int_arg, required=True)
    p.add_argument("--seed", type=_int_arg, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("analyze", help="build the layer-similarity matrix over a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=_int_arg, default=1)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("plan", help="mark redundant layer blocks against a threshold")
    p.add_argument("--sim", required=True)
    p.add_argument("--threshold", type=_float_arg, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("prune", help="apply a plan, emitting a physically smaller model")
    p.add_argument("--model", required=True)
    p.add_argument("--plan", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_prune)

    p = sub.add_parser("random-prune", help="remove a random subset of layers (baseline)")
    p.add_argument("--model", required=True)
    p.add_argument("--count", type=_int_arg, required=True)
    p.add_argument("--seed", type=_int_arg, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_random_prune)

    p = sub.add_parser("render", help="render a similarity matrix as a grayscale heatmap")
    p.add_argument("--sim", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("compare", help="measure final-layer divergence between two models")
    p.add_argument("--model-a", required=True)
    p.add_argument("--model-b", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("forward", help="dump final-layer token embeddings as CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_forward)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (AscError, OSError, MemoryError) as exc:  # numpy names the size it could not allocate
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
