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
from dataclasses import asdict, dataclass, fields, replace

from .errors import FormatError, ValidationError, is_int, require_int, shown
from .fileio import atomic_write, parse_json_object, require_keys

PLAN_VERSION = 1
MODE_ASC = "asc"
MODE_RANDOM = "random"


@dataclass
class PrunePlan:
    """A set of redundant encoder layers (1-based) and the anchors behind them."""

    threshold: float
    redundant_layers: tuple
    anchors: tuple
    matrix_fingerprint: str = None
    mode: str = MODE_ASC
    seed: int = None

    def validate(self) -> "PrunePlan":
        """The one rule for a plan, in memory or read from JSON (lists for
        tuples); returns the plan with tuples and a float threshold."""

        def ints(value):
            return isinstance(value, (list, tuple)) and all(map(is_int, value))

        for name, ok, kind in (
            # a float subclass such as numpy's float64 is a number; a bool is not
            ("threshold", isinstance(self.threshold, float) or is_int(self.threshold),
             "a number"),
            ("redundant_layers", ints(self.redundant_layers), "a list of integers"),
            ("anchors", isinstance(self.anchors, (list, tuple))
             and all(ints(a) and len(a) == 2 for a in self.anchors),
             "a list of [i, j] integer pairs"),
            ("matrix_fingerprint", isinstance(self.matrix_fingerprint, (str, type(None))),
             "a string or null"),
            ("seed", self.seed is None or is_int(self.seed), "an integer or null"),
        ):
            if not ok:
                raise ValidationError(f"plan: {name} must be {kind}, got {shown(getattr(self, name))}")
        if self.mode not in (MODE_ASC, MODE_RANDOM):
            raise ValidationError(f"plan: unknown mode {shown(self.mode)}")
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
        else:
            if not 0 < self.threshold <= 1:
                raise ValidationError(f"plan: threshold must be in (0, 1], got {self.threshold}")
            if self.seed is not None:  # write_plan records a seed for random plans only
                raise ValidationError("plan: asc plans carry no seed")
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
        # a valid threshold lies in [0, 1], so float() cannot overflow
        return replace(self, threshold=float(self.threshold), redundant_layers=layers,
                       anchors=tuple(map(tuple, self.anchors)))


def plan(sim, threshold: float, matrix_fingerprint: str = None) -> PrunePlan:
    """Greedy farthest-j scan over a validated similarity matrix."""
    sim.validate()
    # the plan rule judges the threshold as given, before the scan compares with it
    threshold = PrunePlan(threshold, (), (), matrix_fingerprint).validate().threshold
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
    return PrunePlan(threshold, tuple(redundant), tuple(anchors), matrix_fingerprint).validate()


def plan_random(num_layers: int, count: int, seed: int) -> PrunePlan:
    """Uniform random count-subset of encoder layers 1..L (the ablation baseline)."""
    require_int("num_layers", num_layers, 0)
    require_int("count", count, 0)
    if count > num_layers:
        raise ValidationError(f"count must be in [0, {num_layers}], got {count}")
    # the plan rule judges the seed as given, before random.Random takes it
    empty = PrunePlan(threshold=0.0, redundant_layers=(), anchors=(), mode=MODE_RANDOM,
                      seed=seed).validate()
    chosen = sorted(random.Random(seed).sample(range(1, num_layers + 1), count))
    return replace(empty, redundant_layers=tuple(chosen)).validate()


def write_plan(plan_obj: PrunePlan, path):
    """Write `version` and each PrunePlan field as JSON; a null seed is left out."""
    payload = {"version": PLAN_VERSION, **asdict(plan_obj.validate())}
    if payload["seed"] is None:  # asc plans carry none
        del payload["seed"]
    with atomic_write(path) as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def load_plan(path) -> PrunePlan:
    """The plan in a JSON file holding `version` and each PrunePlan field;
    only `seed` may be absent, and reads as None."""
    with open(path, "rb") as handle:
        payload = parse_json_object(handle.read(), path, PLAN_VERSION, "plan")
    names = {f.name for f in fields(PrunePlan)} - {"seed"}
    require_keys(payload, {"version", *names}, f"{path}: plan", optional=["seed"])
    del payload["version"]
    try:
        return PrunePlan(**payload).validate()
    except ValidationError as exc:
        raise FormatError(f"{path}: {exc}") from exc
