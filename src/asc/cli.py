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
from .fileio import atomic_write
from .forward import hidden_states

# ASCII decimal digits, as the file loaders read ints; int() alone would also
# take "1_0", " 2", "+2" and non-ASCII digits. A sign is read so that a
# negative value reaches the check that names its bound.
_INT_RE = re.compile(r"-?[0-9]+", re.ASCII)


def int_arg(text: str) -> int:
    try:
        if _INT_RE.fullmatch(text):
            return int(text)
    except ValueError:  # beyond the interpreter's digit limit
        pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def float_arg(text: str) -> float:
    if not similarity.CSV_VALUE_RE.fullmatch(text):
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    return float(text)


def list_arg(name: str, text: str, item=int_arg) -> list:
    """The comma-separated items of flag `name`'s `text`, each read by the
    argument type `item` with the ASCII whitespace around it dropped. "" holds
    no item; an empty item is refused, not dropped."""
    parts = text.split(",") if text else []
    try:
        return [item(part.strip(string.whitespace)) for part in parts]
    except argparse.ArgumentTypeError as exc:
        raise ValidationError(
            f"{name} must be comma-separated values ({exc}), got {text!r}") from exc


def _cmd_synth(args):
    identity = list_arg("--identity-layers", args.identity_layers)
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
    matrix, fingerprint = similarity._read_matrix_csv(args.sim)
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
    # keeps only each sequence's final layer; a block's other states are freed with it
    finals = similarity._map_sequences(
        lambda block: block.split(hidden_states(config, weights, block)[-1]),
        dataset, (config,), workers=1)
    with atomic_write(args.out) as handle:
        for final in finals:
            for row in final:
                handle.write(",".join(repr(float(v)) for v in row))
                handle.write("\n")
    print(f"wrote embeddings: {args.out} (tokens={dataset.total_tokens}, dim={config.hidden_dim})")


_INT = {"type": int_arg, "required": True}
_PATH = {"required": True}

# name -> (handler, help, flags): the one definition of every command
_COMMANDS = {
    "synth": (_cmd_synth, "generate a synthetic model with planted identity layers", {
        "--layers": _INT, "--hidden-dim": _INT, "--heads": _INT, "--ffn-dim": _INT,
        "--vocab": _INT, "--max-seq-len": {"type": int_arg, "default": 128},
        "--identity-layers": {"default": "", "help": "comma-separated encoder indices (1-based)"},
        "--seed": _INT, "--out": _PATH}),
    "gen-data": (_cmd_gen_data, "generate a random token dataset", {
        "--sequences": _INT, "--min-len": _INT, "--max-len": _INT, "--vocab": _INT,
        "--seed": _INT, "--out": _PATH}),
    "analyze": (_cmd_analyze, "build the layer-similarity matrix over a dataset", {
        "--model": _PATH, "--data": _PATH, "--out": _PATH,
        "--workers": {"type": int_arg, "default": 1}}),
    "plan": (_cmd_plan, "mark redundant layer blocks against a threshold", {
        "--sim": _PATH, "--threshold": {"type": float_arg, "required": True}, "--out": _PATH}),
    "prune": (_cmd_prune, "apply a plan, emitting a physically smaller model", {
        "--model": _PATH, "--plan": _PATH, "--out": _PATH}),
    "random-prune": (_cmd_random_prune, "remove a random subset of layers (baseline)", {
        "--model": _PATH, "--count": _INT, "--seed": _INT, "--out": _PATH}),
    "render": (_cmd_render, "render a similarity matrix as a grayscale heatmap", {
        "--sim": _PATH, "--out": _PATH}),
    "compare": (_cmd_compare, "measure final-layer divergence between two models", {
        "--model-a": _PATH, "--model-b": _PATH, "--data": _PATH}),
    "forward": (_cmd_forward, "dump final-layer token embeddings as CSV", {
        "--model": _PATH, "--data": _PATH, "--out": _PATH}),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The `asc` parser with every command, or with `command`'s alone.

    A one-command parser parses that command's arguments, and prints its
    help, usage and errors, exactly as the full parser does, for a fraction
    of the set-up cost.
    """
    parser = argparse.ArgumentParser(
        prog="asc",
        description="Analyze layer similarity of an encoder model over a dataset and prune redundant layers.",
    )
    names = list(_COMMANDS) if command is None else [command]
    # with one subparser the usage line would list only it; the full parser's
    # own errors name the action `command`, so its metavar stays unset
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        func, help_text, flags = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flag, options in flags.items():
            p.add_argument(flag, **options)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        args.func(args)
    except (AscError, OSError, MemoryError) as exc:  # numpy names the size it could not allocate
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
