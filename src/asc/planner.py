"""Redundant-layer planning from a similarity matrix, plus the random baseline.

The scan walks anchor layer i from the embedding (index 0) upward. For
each i it looks for the farthest layer j (scanning from the last layer
down) whose similarity to i meets the threshold; layers i+1..j are then
redundant, the pair (i, j) is recorded as the anchor justifying the
block, and the scan resumes at j+1. Blocks need not be adjacent, so the
pruned set can be non-contiguous.
"""

import json
import random
from dataclasses import dataclass

from .errors import FormatError, ValidationError
from .fileio import atomic_write, read_text

PLAN_VERSION = 1
MODE_ASC = "asc"
MODE_RANDOM = "random"


def _int_list(value) -> bool:
    return isinstance(value, list) and all(type(i) is int for i in value)


# (plan JSON field, type check, expected kind); bools and floats never pass
# for integers, and an absent optional field reads as null
_FIELD_TYPES = (
    ("threshold", lambda v: type(v) in (int, float), "a number"),
    ("redundant_layers", _int_list, "a list of integers"),
    ("anchors", lambda v: isinstance(v, list) and all(_int_list(a) and len(a) == 2 for a in v),
     "a list of [i, j] integer pairs"),
    ("matrix_fingerprint", lambda v: v is None or isinstance(v, str), "a string or null"),
    ("seed", lambda v: v is None or type(v) is int, "an integer or null"),
)


@dataclass
class PrunePlan:
    """A set of redundant encoder layers (1-based) and the anchors behind them."""

    threshold: float
    redundant_layers: tuple
    anchors: tuple
    matrix_fingerprint: str = None
    mode: str = MODE_ASC
    seed: int = None

    def validate(self):
        if self.mode not in (MODE_ASC, MODE_RANDOM):
            raise ValidationError(f"plan: unknown mode {self.mode!r}")
        layers = tuple(self.redundant_layers)
        if sorted(set(layers)) != list(layers):
            raise ValidationError(f"plan: redundant_layers must be sorted and unique: {layers}")
        if any(i < 1 for i in layers):
            raise ValidationError("plan: the embedding layer (index 0) can never be pruned")
        if self.mode == MODE_RANDOM:
            if self.threshold != 0:
                raise ValidationError("plan: random plans record threshold 0")
            if self.anchors:
                raise ValidationError("plan: random plans carry no anchors")
            return
        if not 0 < self.threshold <= 1:
            raise ValidationError(f"plan: threshold must be in (0, 1], got {self.threshold}")
        covered = set()
        previous_j = None
        for anchor in self.anchors:
            i, j = anchor
            if not (0 <= i < j):
                raise ValidationError(f"plan: bad anchor {anchor}")
            if previous_j is not None and i < previous_j + 1:
                raise ValidationError(f"plan: anchor blocks overlap at {anchor}")
            covered.update(range(i + 1, j + 1))
            previous_j = j
        if covered != set(layers):
            raise ValidationError(
                f"plan: redundant_layers {layers} do not match anchor blocks {sorted(covered)}"
            )


def plan(sim, threshold: float, matrix_fingerprint: str = None) -> PrunePlan:
    """Greedy farthest-j scan over a validated similarity matrix."""
    if not 0 < threshold <= 1:
        raise ValidationError(f"threshold must be in (0, 1], got {threshold}")
    sim.validate()
    values = sim.values
    last = sim.size - 1
    anchors = []
    redundant = []
    i = 0
    while i <= last:
        j = last
        while j > i and values[i][j] < threshold:
            j -= 1
        if j > i:
            anchors.append((i, j))
            redundant.extend(range(i + 1, j + 1))
        i = j + 1
    result = PrunePlan(
        threshold=float(threshold),
        redundant_layers=tuple(redundant),
        anchors=tuple(anchors),
        matrix_fingerprint=matrix_fingerprint,
        mode=MODE_ASC,
    )
    result.validate()
    return result


def plan_random(num_layers: int, count: int, seed: int) -> PrunePlan:
    """Uniform random count-subset of encoder layers 1..L (the ablation baseline)."""
    if num_layers < 0:
        raise ValidationError(f"num_layers must be >= 0, got {num_layers}")
    if not 0 <= count <= num_layers:
        raise ValidationError(f"count must be in [0, {num_layers}], got {count}")
    rng = random.Random(seed)
    chosen = sorted(rng.sample(range(1, num_layers + 1), count))
    result = PrunePlan(
        threshold=0.0,
        redundant_layers=tuple(chosen),
        anchors=(),
        mode=MODE_RANDOM,
        seed=seed,
    )
    result.validate()
    return result


def write_plan(plan_obj: PrunePlan, path):
    plan_obj.validate()
    payload = {
        "version": PLAN_VERSION,
        "threshold": plan_obj.threshold,
        "redundant_layers": list(plan_obj.redundant_layers),
        "anchors": [list(a) for a in plan_obj.anchors],
        "matrix_fingerprint": plan_obj.matrix_fingerprint,
        "mode": plan_obj.mode,
    }
    if plan_obj.mode == MODE_RANDOM:
        payload["seed"] = plan_obj.seed
    with atomic_write(path) as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def load_plan(path) -> PrunePlan:
    try:
        payload = json.loads(read_text(path))
    except (ValueError, RecursionError) as exc:
        # ValueError: not JSON, or an integer beyond the interpreter's digit
        # limit; RecursionError: nesting deeper than the decoder can follow
        raise FormatError(f"{path}: unparseable plan JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise FormatError(f"{path}: plan must be a JSON object")
    version = payload.get("version")
    if type(version) is not int or version != PLAN_VERSION:
        raise FormatError(f"{path}: unknown plan version {version!r}")
    required = {"version", "threshold", "redundant_layers", "anchors", "matrix_fingerprint", "mode"}
    missing = required - set(payload)
    if missing:
        raise FormatError(f"{path}: missing plan fields {sorted(missing)}")
    for name, ok, kind in _FIELD_TYPES:
        value = payload.get(name)
        if not ok(value):
            raise FormatError(f"{path}: plan field {name} must be {kind}, got {value!r}")
    try:
        threshold = float(payload["threshold"])
    except OverflowError as exc:
        raise FormatError(f"{path}: plan threshold out of range ({exc})") from exc
    result = PrunePlan(
        threshold=threshold,
        redundant_layers=tuple(payload["redundant_layers"]),
        anchors=tuple(tuple(a) for a in payload["anchors"]),
        matrix_fingerprint=payload["matrix_fingerprint"],
        mode=payload["mode"],
        seed=payload.get("seed"),
    )
    try:
        result.validate()
    except ValidationError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    return result
