import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asc.cli import main
from asc.errors import FormatError, ValidationError
from asc.model import save_model
from asc.planner import (
    MODE_ASC,
    MODE_RANDOM,
    PrunePlan,
    load_plan,
    plan,
    plan_random,
    write_plan,
)
from asc.similarity import SimilarityMatrix
from conftest import header_paths, make_model, other_typed
from oracles import replay_oracle


def matrix_from(values, tokens=10):
    return SimilarityMatrix(values=np.asarray(values, dtype=np.float64), token_count=tokens)


def random_matrix(rng, size):
    values = rng.uniform(0.0, 1.0, size=(size, size))
    values = np.triu(values, k=1)
    values = values + values.T
    np.fill_diagonal(values, 1.0)
    return matrix_from(values)


def all_ones(size):
    return matrix_from(np.ones((size, size)))


def identity_matrix(size):
    return matrix_from(np.eye(size))


HAND_MATRIX = matrix_from([
    [1.00, 0.95, 0.80, 0.30],
    [0.95, 1.00, 0.95, 0.50],
    [0.80, 0.95, 1.00, 0.92],
    [0.30, 0.50, 0.92, 1.00],
])


class TestPlanHandTraces:
    def test_all_ones_collapses_to_embedding(self):
        result = plan(all_ones(3), 0.9)
        assert result.anchors == ((0, 2),)
        assert result.redundant_layers == (1, 2)

    def test_identity_matrix_prunes_nothing(self):
        result = plan(identity_matrix(3), 0.9)
        assert result.anchors == ()
        assert result.redundant_layers == ()

    def test_non_contiguous_blocks(self):
        result = plan(HAND_MATRIX, 0.9)
        assert result.anchors == ((0, 1), (2, 3))
        assert result.redundant_layers == (1, 3)

    def test_threshold_one_with_sub_unit_entries(self):
        matrix = random_matrix(np.random.default_rng(0), 5)
        assert np.all(matrix.values[~np.eye(5, dtype=bool)] < 1.0)
        assert plan(matrix, 1.0).redundant_layers == ()
        assert replay_oracle(matrix, 1.0) == set()

    def test_threshold_bounds(self):
        for bad in (0.0, -0.1, 1.0001, 2.0):
            with pytest.raises(ValidationError, match="threshold"):
                plan(all_ones(3), bad)
            with pytest.raises(ValidationError, match="threshold"):
                replay_oracle(all_ones(3), bad)

    @pytest.mark.parametrize("bad", [True, False, "0.9", None, np.float32(0.9), 10 ** 5000],
                             ids=lambda v: type(v).__name__)
    def test_threshold_judged_as_given(self, bad):
        """PrunePlan.validate sees the raw threshold: a bool is not read as 1.0 or 0.0."""
        with pytest.raises(ValidationError, match="threshold"):
            plan(HAND_MATRIX, bad)

    def test_numpy_float64_threshold_accepted(self):
        """float64 subclasses float; the plan records it as a plain float."""
        result = plan(HAND_MATRIX, np.float64(0.9))
        assert result == plan(HAND_MATRIX, 0.9)
        assert type(result.threshold) is float

    def test_mode_and_fingerprint_recorded(self):
        result = plan(HAND_MATRIX, 0.9, matrix_fingerprint="abc123")
        assert result.mode == MODE_ASC
        assert result.matrix_fingerprint == "abc123"
        assert result.threshold == 0.9


class TestOracleEquivalence:
    def test_hand_examples_agree(self):
        for matrix in (all_ones(3), identity_matrix(3), HAND_MATRIX):
            for threshold in (0.8, 0.85, 0.9):
                assert set(plan(matrix, threshold).redundant_layers) == \
                    replay_oracle(matrix, threshold)

    def test_thousand_random_matrices(self):
        rng = np.random.default_rng(2024)
        for trial in range(1000):
            size = 4 + trial % 11
            matrix = random_matrix(rng, size)
            for threshold in (0.8, 0.85, 0.9):
                got = set(plan(matrix, threshold).redundant_layers)
                want = replay_oracle(matrix, threshold)
                assert got == want, f"trial {trial} threshold {threshold}"

    @given(st.integers(0, 2**32 - 1), st.integers(4, 14),
           st.sampled_from([0.5, 0.8, 0.85, 0.9, 0.99]))
    @settings(max_examples=60, deadline=None)
    def test_plan_properties(self, seed, size, threshold):
        matrix = random_matrix(np.random.default_rng(seed), size)
        result = plan(matrix, threshold)
        last = size - 1
        assert set(result.redundant_layers) == replay_oracle(matrix, threshold)
        assert 0 not in result.redundant_layers
        previous_j = None
        for i, j in result.anchors:
            # anchor justification and farthest-j property
            assert matrix.values[i][j] >= threshold
            for k in range(j + 1, last + 1):
                assert matrix.values[i][k] < threshold
            if previous_j is not None:
                assert i >= previous_j + 1
            previous_j = j


class TestMonotoneDecayRegime:
    @given(st.lists(st.floats(0.0, 0.999), min_size=4, max_size=13),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_lower_threshold_never_prunes_less(self, raw, seed):
        # Band matrices whose entries decay with |i - j| per row: the regime
        # where threshold sweeps behave monotonically.
        decay = sorted(raw, reverse=True)
        size = len(decay) + 1
        values = np.ones((size, size))
        for i in range(size):
            for j in range(size):
                if i != j:
                    values[i, j] = decay[abs(i - j) - 1]
        matrix = matrix_from(values)
        counts = [len(plan(matrix, t).redundant_layers) for t in (0.8, 0.85, 0.9)]
        assert counts[0] >= counts[1] >= counts[2]


class TestRandomBaseline:
    def test_count_zero_is_empty_plan(self):
        result = plan_random(12, 0, seed=5)
        assert result.redundant_layers == ()
        assert result.anchors == ()
        assert result.mode == MODE_RANDOM
        assert result.threshold == 0.0

    def test_deterministic_under_seed(self):
        assert plan_random(12, 6, seed=41) == plan_random(12, 6, seed=41)

    def test_half_of_twelve_layers(self):
        result = plan_random(12, 6, seed=1)
        assert len(result.redundant_layers) == 6
        assert set(result.redundant_layers) <= set(range(1, 13))
        assert list(result.redundant_layers) == sorted(result.redundant_layers)

    def test_different_seeds_differ_somewhere(self):
        picks = {plan_random(12, 6, seed=s).redundant_layers for s in range(20)}
        assert len(picks) > 1

    def test_count_exceeding_layers_rejected(self):
        with pytest.raises(ValidationError, match="count"):
            plan_random(4, 5, seed=0)

    def test_full_removal_allowed(self):
        assert plan_random(3, 3, seed=0).redundant_layers == (1, 2, 3)

    @pytest.mark.parametrize("num_layers, count", [(3, True), (3.0, 1), (3, 1.0)], ids=repr)
    def test_non_int_arguments_rejected(self, num_layers, count):
        with pytest.raises(ValidationError):
            plan_random(num_layers, count, seed=0)


class TestPlanValidation:
    def test_overlapping_anchors_rejected(self):
        bad = PrunePlan(threshold=0.9, redundant_layers=(1, 2, 3),
                        anchors=((0, 2), (1, 3)))
        with pytest.raises(ValidationError, match="overlap"):
            bad.validate()

    def test_uncovered_layers_rejected(self):
        bad = PrunePlan(threshold=0.9, redundant_layers=(1, 2), anchors=((0, 1),))
        with pytest.raises(ValidationError, match="match"):
            bad.validate()

    def test_embedding_layer_rejected(self):
        bad = PrunePlan(threshold=0.9, redundant_layers=(0, 1), anchors=((0, 1),))
        with pytest.raises(ValidationError, match="embedding"):
            bad.validate()

    def test_random_plan_with_anchors_rejected(self):
        bad = PrunePlan(threshold=0.0, redundant_layers=(1,), anchors=((0, 1),),
                        mode=MODE_RANDOM)
        with pytest.raises(ValidationError, match="anchors"):
            bad.validate()

    @pytest.mark.parametrize("layers", [(True,), (np.int64(1),)], ids=repr)
    def test_write_refuses_non_int_layers(self, tmp_path, layers):
        bad = PrunePlan(threshold=0.0, redundant_layers=layers, anchors=(), mode=MODE_RANDOM,
                        seed=1)
        path = tmp_path / "plan.json"
        with pytest.raises(ValidationError, match="redundant_layers"):
            write_plan(bad, path)
        assert not path.exists()

    def test_asc_plan_with_seed_rejected(self):
        """write_plan records no seed for an asc plan, so it would not load back equal."""
        bad = PrunePlan(threshold=0.9, redundant_layers=(1,), anchors=((0, 1),), seed=4)
        with pytest.raises(ValidationError, match="seed"):
            bad.validate()

    def test_unknown_mode_rejected(self):
        bad = PrunePlan(threshold=0.9, redundant_layers=(), anchors=(), mode="magic")
        with pytest.raises(ValidationError, match="mode"):
            bad.validate()


class TestPlanJson:
    def test_asc_round_trip(self, tmp_path):
        original = plan(HAND_MATRIX, 0.9, matrix_fingerprint="deadbeef")
        path = tmp_path / "plan.json"
        write_plan(original, path)
        assert load_plan(path) == original

    def test_random_round_trip(self, tmp_path):
        original = plan_random(12, 6, seed=13)
        path = tmp_path / "plan.json"
        write_plan(original, path)
        loaded = load_plan(path)
        assert loaded == original
        assert loaded.seed == 13

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "plan.json"
        write_plan(plan(HAND_MATRIX, 0.9), path)
        payload = path.read_text().replace('"version": 1', '"version": 7')
        path.write_text(payload)
        with pytest.raises(FormatError, match="version"):
            load_plan(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text('{"version": 1, "threshold": 0.9}')
        with pytest.raises(FormatError, match="missing"):
            load_plan(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text("{nope")
        with pytest.raises(FormatError, match="unparseable"):
            load_plan(path)

    def test_inconsistent_plan_rejected(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(
            '{"version": 1, "threshold": 0.9, "redundant_layers": [2], '
            '"anchors": [[0, 1]], "matrix_fingerprint": null, "mode": "asc"}'
        )
        with pytest.raises(FormatError, match="match"):
            load_plan(path)


ASC_PLAN = {"version": 1, "threshold": 0.9, "redundant_layers": [2, 3], "anchors": [[1, 3]],
            "matrix_fingerprint": None, "mode": "asc"}
RANDOM_PLAN = {"version": 1, "threshold": 0.0, "redundant_layers": [2, 3], "anchors": [],
               "matrix_fingerprint": None, "mode": "random", "seed": 5}


class TestStrictPlanFields:
    """Plan values of the wrong JSON type are refused, never coerced."""

    @pytest.mark.parametrize("base, field, value", [
        (ASC_PLAN, "version", True),
        (ASC_PLAN, "threshold", True),
        (ASC_PLAN, "threshold", "0.9"),
        (ASC_PLAN, "threshold", 10 ** 400),
        (ASC_PLAN, "redundant_layers", [2.9, 3]),
        (ASC_PLAN, "redundant_layers", [2, 3.0]),
        (ASC_PLAN, "anchors", [[1.5, 3]]),
        (ASC_PLAN, "anchors", [[True, 3]]),
        (ASC_PLAN, "anchors", [[1, 3, 9]]),
        (ASC_PLAN, "matrix_fingerprint", 12345),
        (RANDOM_PLAN, "seed", "5"),
        (RANDOM_PLAN, "seed", 1.5),
        (RANDOM_PLAN, "seed", True),
    ], ids=lambda v: v["mode"] if isinstance(v, dict) else repr(v)[:20])
    def test_cli_exits_1_with_error(self, tmp_path, capsys, base, field, value):
        config, weights = make_model(num_layers=4)
        model_path = tmp_path / "m.ascm"
        save_model(config, weights, model_path)
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({**base, field: value}))
        out = tmp_path / "out.ascm"
        assert main(["prune", "--model", str(model_path), "--plan", str(plan_path),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


class TestLoadPlanTotality:
    """Truncations, byte flips and field type swaps of a valid plan file end
    in FormatError or ValidationError, never in another exception."""

    @pytest.fixture(scope="class", params=["asc", "random"])
    def valid(self, request, tmp_path_factory):
        directory = tmp_path_factory.mktemp("totality")
        original = (plan(HAND_MATRIX, 0.9, matrix_fingerprint="deadbeef")
                    if request.param == "asc" else plan_random(6, 3, seed=13))
        write_plan(original, directory / "valid.json")
        return original, (directory / "valid.json").read_bytes(), directory / "case.json"

    def test_every_truncation_refused_or_unchanged(self, valid):
        original, blob, path = valid
        for length in range(len(blob)):
            path.write_bytes(blob[:length])
            try:
                loaded = load_plan(path)
            except (FormatError, ValidationError):
                continue
            assert loaded == original  # only the final newline was cut

    @settings(derandomize=True, deadline=None, max_examples=100, database=None)
    @given(data=st.data())
    def test_single_byte_flip(self, valid, data):
        _, blob, path = valid
        pos = data.draw(st.integers(0, len(blob) - 1))
        flip = data.draw(st.integers(1, 255))
        path.write_bytes(blob[:pos] + bytes([blob[pos] ^ flip]) + blob[pos + 1:])
        try:
            load_plan(path)
        except (FormatError, ValidationError):
            pass  # a flip inside a number or the fingerprint may leave a valid plan

    @settings(derandomize=True, deadline=None, max_examples=100, database=None)
    @given(data=st.data())
    def test_field_type_swap(self, valid, data):
        _, blob, path = valid
        payload = json.loads(blob)
        keys = data.draw(st.sampled_from(list(header_paths(payload))))
        target = payload
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = data.draw(st.sampled_from(other_typed(target[keys[-1]])))
        path.write_text(json.dumps(payload))
        try:
            load_plan(path)
        except (FormatError, ValidationError):
            pass  # a null fingerprint or seed, or an integer 0 threshold, is valid
