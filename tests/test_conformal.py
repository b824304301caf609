"""Nonconformity distributions, quantiles, scoring, and Q-Q utilities."""
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plancheck
from conftest import synthetic_classifier
from plancheck.conformal import (
    SUM_TOLERANCE,
    ConfidenceVectorError,
    EmptyCalibrationError,
    EmptySampleError,
    InvalidLevelError,
    NonconformityDistribution,
    PerceptionSample,
    load_perception_calibration,
    perception_nonconformity,
    perception_score,
    predict,
    qq_points,
    second_largest,
    validate_confidence_vector,
)


def dist(*scores):
    return NonconformityDistribution(scores)


class TestPerceptionNonconformity:
    def test_scores_are_one_minus_true_confidence(self):
        samples = [
            PerceptionSample("a", 0, (0.9, 0.05, 0.05)),
            PerceptionSample("b", 1, (0.1, 0.8, 0.1)),
            PerceptionSample("c", 2, (0.15, 0.15, 0.7)),
        ]
        result = perception_nonconformity(samples)
        assert np.allclose(result.scores, [0.1, 0.2, 0.3])

    def test_perfect_prediction(self):
        samples = [PerceptionSample("a", 0, (1.0, 0.0))]
        assert list(perception_nonconformity(samples).scores) == [0.0]

    def test_order_invariant(self):
        samples = [
            PerceptionSample("a", 0, (0.9, 0.1)),
            PerceptionSample("b", 0, (0.6, 0.4)),
        ]
        assert perception_nonconformity(samples) == perception_nonconformity(samples[::-1])

    def test_empty_calibration(self):
        with pytest.raises(EmptyCalibrationError):
            perception_nonconformity([])

    def test_sample_keeps_the_validated_floats(self):
        # Numeric strings pass validation; the sample must hold floats, so
        # that scoring it does not fail later.
        sample = PerceptionSample("a", 0, ("0.9", "0.1"))
        assert sample.confidence == (0.9, 0.1)
        assert all(type(p) is float for p in sample.confidence)
        assert list(perception_nonconformity([sample]).scores) == [pytest.approx(0.1)]


class TestEcdf:
    def test_counts_fraction_at_or_below(self):
        assert dist(0.1, 0.2, 0.3, 0.4).ecdf(0.35) == 0.75

    def test_below_minimum(self):
        assert dist(0.1, 0.2).ecdf(0.05) == 0.0

    def test_right_continuous_at_scores(self):
        assert dist(0.5).ecdf(0.5) == 1.0

    def test_extremes(self):
        d = dist(0.2, 0.4, 0.6)
        assert d.ecdf(1.0) == 1.0
        assert d.ecdf(-1.0) == 0.0

    @given(st.floats(0, 1), st.floats(0, 1))
    def test_nondecreasing(self, x, y):
        d = dist(0.1, 0.3, 0.5, 0.7, 0.9)
        lo, hi = min(x, y), max(x, y)
        assert d.ecdf(lo) <= d.ecdf(hi)


class TestQuantile:
    def test_finite_sample_rank(self):
        scores = [i / 10 for i in range(1, 10)]  # n = 9
        assert dist(*scores).quantile(0.9) == scores[8]  # ceil(10 * 0.9) = 9th

    def test_low_level_gives_smallest(self):
        assert dist(0.2, 0.5, 0.8).quantile(1e-9) == 0.2

    def test_single_score_clamps(self):
        assert dist(0.42).quantile(0.99) == 0.42
        assert dist(0.42).quantile(0.01) == 0.42

    def test_invalid_levels(self):
        d = dist(0.5)
        for level in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(InvalidLevelError):
                d.quantile(level)

    def test_nondecreasing_in_level(self):
        d = dist(*[i / 20 for i in range(1, 20)])
        values = [d.quantile(l) for l in np.linspace(0.01, 0.99, 33)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_float_noise_does_not_shift_rank(self):
        scores = [i / 20 for i in range(1, 20)]  # n = 19; 20 * 0.9 = 18.000000000000004
        assert dist(*scores).quantile(0.9) == scores[17]


class TestPredict:
    def test_argmax(self):
        assert predict((0.7, 0.2, 0.1)) == 0

    def test_tie_breaks_low_index(self):
        assert predict((0.5, 0.5)) == 0

    def test_monotone_transform_invariant(self):
        v = (0.5, 0.3, 0.2)
        squared = tuple(x * x for x in v)
        total = sum(squared)
        assert predict(v) == predict(tuple(x / total for x in squared))


class TestPerceptionScore:
    def test_confident_vector_scores_high(self):
        d = dist(0.1, 0.2, 0.3, 0.4)
        assert perception_score((0.9, 0.05, 0.03, 0.02), d) == 1.0

    def test_boundary_vectors(self):
        d = dist(0.1, 0.2, 0.3, 0.4)
        assert perception_score((0.5, 0.5), d) == 1.0
        assert perception_score((0.85, 0.15), d) == 1.0

    def test_large_runner_up_lowers_score(self):
        # A runner-up of 0.5 is the largest a valid vector allows; the
        # evaluation point 1 - second_largest is therefore never below 0.5.
        d = dist(0.3, 0.55, 0.7, 0.9)
        assert perception_score((0.5, 0.5), d) == 0.25
        assert perception_score((0.88, 0.12), d) == 0.75

    def test_nonincreasing_in_runner_up(self):
        d = dist(*[i / 10 for i in range(1, 10)])
        scores = []
        for second in (0.05, 0.15, 0.25, 0.35, 0.45):
            scores.append(perception_score((1.0 - second, second), d))
        assert all(a >= b for a, b in zip(scores, scores[1:]))

    def test_second_largest(self):
        assert second_largest((0.6, 0.3, 0.1)) == 0.3


class TestConfidenceVectors:
    def test_rejects_nan(self):
        with pytest.raises(ConfidenceVectorError):
            validate_confidence_vector((float("nan"), 1.0))

    def test_rejects_bad_sum(self):
        with pytest.raises(ConfidenceVectorError):
            validate_confidence_vector((0.5, 0.4))

    def test_rejects_out_of_range(self):
        with pytest.raises(ConfidenceVectorError):
            validate_confidence_vector((1.2, -0.2))

    def test_rejects_single_class(self):
        with pytest.raises(ConfidenceVectorError):
            validate_confidence_vector((1.0,))

    def test_sample_label_range(self):
        with pytest.raises(ConfidenceVectorError):
            PerceptionSample("a", 5, (0.5, 0.5))

    @pytest.mark.parametrize("entries", [["a", "b"], (0.5, 0.5j), [[0.5, 0.5]], "10"])
    def test_rejects_entries_that_are_not_numbers(self, entries):
        with pytest.raises(ConfidenceVectorError):
            validate_confidence_vector(entries)


class TestCoverage:
    def test_split_conformal_guarantee(self):
        rng = np.random.default_rng(4)
        cal_v, cal_y = synthetic_classifier(rng, 1000)
        d = NonconformityDistribution(1 - cal_v[np.arange(1000), cal_y])
        test_v, test_y = synthetic_classifier(rng, 10000)
        test_scores = 1 - test_v[np.arange(10000), test_y]
        for eps in (0.1, 0.3):
            threshold = d.quantile(1 - eps)
            coverage = float(np.mean(test_scores <= threshold))
            assert coverage >= 1 - eps - 0.02


class TestQqPoints:
    def test_identical_samples_on_diagonal(self):
        rng = np.random.default_rng(7)
        sample = rng.random(37).tolist()
        for m in (2, 5, 50):
            assert all(x == y for x, y in qq_points(sample, sample, m))

    def test_shift_moves_one_coordinate(self):
        rng = np.random.default_rng(8)
        a = rng.random(25).tolist()
        b = [x + 0.1 for x in a]
        for x, y in qq_points(a, b, 11):
            assert y == pytest.approx(x + 0.1)

    def test_two_points_are_extremes(self):
        a = [0.3, 0.9, 0.1]
        b = [0.5, 0.2]
        points = qq_points(a, b, 2)
        assert points[0] == (0.1, 0.2)
        assert points[1] == (0.9, 0.5)

    def test_guards(self):
        with pytest.raises(EmptySampleError):
            qq_points([], [0.1], 3)
        with pytest.raises(ValueError):
            qq_points([0.1], [0.2], 1)
        with pytest.raises(ValueError, match="NaN"):
            qq_points([0.1, float("nan")], [0.2], 3)


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        d = dist(0.3, 0.1, 0.7)
        path = tmp_path / "scores.txt"
        d.save(path)
        assert NonconformityDistribution.load(path) == d

    def test_save_is_byte_deterministic(self, tmp_path):
        d = dist(0.25, 0.5, 0.125)
        first, second = tmp_path / "a.txt", tmp_path / "b.txt"
        d.save(first)
        d.save(second)
        assert first.read_bytes() == second.read_bytes()

    def test_rejects_out_of_range_scores(self):
        with pytest.raises(ValueError):
            dist(0.5, 1.5)


class TestCalibrationFile:
    def test_load(self, tmp_path):
        path = tmp_path / "cal.csv"
        path.write_text("k = 3\nimg_1, 0, 0.8 0.1 0.1\nimg_2, 2, 0.2 0.2 0.6\n")
        samples = load_perception_calibration(path)
        assert [s.image_id for s in samples] == ["img_1", "img_2"]
        assert samples[1].true_label == 2

    def test_bundled_file_loads(self):
        from plancheck import bundled_path

        samples = load_perception_calibration(bundled_path("driving_perception_calibration.csv"))
        assert len(samples) == 40

    def test_rejects_wrong_arity(self, tmp_path):
        path = tmp_path / "cal.csv"
        path.write_text("k = 3\nimg_1, 0, 0.8 0.2\n")
        with pytest.raises(ValueError):
            load_perception_calibration(path)

    def test_rejects_invalid_probabilities(self, tmp_path):
        path = tmp_path / "cal.csv"
        path.write_text("k = 2\nimg_1, 0, nan 1.0\n")
        with pytest.raises(ConfidenceVectorError):
            load_perception_calibration(path)

    def test_requires_header(self, tmp_path):
        path = tmp_path / "cal.csv"
        path.write_text("img_1, 0, 0.8 0.2\n")
        with pytest.raises(ValueError, match="class count"):
            load_perception_calibration(path)


# --------------------------------------------------------------------------
# Plain-Python scoring against numpy references
# --------------------------------------------------------------------------

REFERENCE = settings(max_examples=300, derandomize=True, database=None, deadline=None)
SCORES = st.lists(st.floats(0, 1), min_size=1, max_size=40)


def numpy_validate_confidence_vector(entries):
    """The numpy implementation that ``validate_confidence_vector`` replaced."""
    arr = np.asarray(entries, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ConfidenceVectorError(f"need at least 2 class entries, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfidenceVectorError("confidence vector contains NaN or infinity")
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ConfidenceVectorError("confidence entries must lie in [0, 1]")
    total = float(arr.sum())
    if abs(total - 1.0) > SUM_TOLERANCE:
        raise ConfidenceVectorError(f"confidence entries sum to {total}, expected 1")
    return arr


def outcome(validate, entries):
    try:
        return tuple(map(float, validate(entries)))
    except ConfidenceVectorError as exc:
        return str(exc)


@st.composite
def confidence_vectors(draw):
    """k in 2..7: normalised vectors nudged across the 1e-6 sum edge, or raw entries."""
    k = draw(st.integers(2, 7))
    if draw(st.booleans()):
        return draw(st.lists(st.floats(-0.5, 1.5) | st.sampled_from([math.nan, math.inf]),
                             min_size=k, max_size=k))
    weights = draw(st.lists(st.floats(0, 1), min_size=k, max_size=k))
    total = sum(weights) or 1.0
    vector = [w / total for w in weights]
    edge = draw(st.sampled_from([1e-6, -1e-6]))
    vector[-1] += draw(st.just(0.0) | st.floats(-2e-6, 2e-6) | st.just(edge)
                       | st.just(math.nextafter(edge, 0.0)) | st.just(math.nextafter(edge, 2 * edge)))
    return vector


def same_floats(xs, ys):
    return len(xs) == len(ys) and all(x == y or (math.isnan(x) and math.isnan(y)) for x, y in zip(xs, ys))


class TestNumpyReferences:
    @REFERENCE
    @given(confidence_vectors())
    def test_validation_accepts_and_rejects_like_numpy(self, entries):
        assert outcome(validate_confidence_vector, entries) == outcome(
            numpy_validate_confidence_vector, entries
        )

    @REFERENCE
    @given(SCORES, st.floats(-0.5, 1.5) | st.sampled_from([0.0, 1.0, math.nan]), st.data())
    def test_ecdf_matches_searchsorted(self, scores, x, data):
        d = NonconformityDistribution(scores)
        ordered = np.sort(np.asarray(scores, dtype=float))
        for point in (x, data.draw(st.sampled_from(scores))):
            assert d.ecdf(point) == float(np.searchsorted(ordered, point, side="right")) / len(scores)

    @REFERENCE
    @given(SCORES, st.floats(0, 1, exclude_min=True, exclude_max=True))
    def test_quantile_matches_partition(self, scores, level):
        n = len(scores)
        rank = min(max(math.ceil((n + 1) * level - 1e-9), 1), n)
        expected = float(np.partition(np.asarray(scores, dtype=float), rank - 1)[rank - 1])
        assert NonconformityDistribution(scores).quantile(level) == expected

    @REFERENCE
    @given(SCORES, confidence_vectors())
    def test_perception_score_matches_numpy(self, scores, entries):
        try:
            arr = numpy_validate_confidence_vector(entries)
        except ConfidenceVectorError:
            with pytest.raises(ConfidenceVectorError):
                perception_score(entries, dist(*scores))
            return
        runner_up = np.partition(arr, -2)[-2]
        ordered = np.sort(np.asarray(scores, dtype=float))
        expected = float(np.searchsorted(ordered, 1.0 - runner_up, side="right")) / len(scores)
        assert second_largest(entries) == float(runner_up)
        assert perception_score(entries, dist(*scores)) == expected

    @REFERENCE
    @given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=40),
           st.lists(st.floats(0, 1), min_size=1, max_size=40), st.integers(2, 60))
    def test_qq_points_match_linear_quantile(self, a, b, m):
        probs = np.arange(m) / (m - 1)
        points = qq_points(a, b, m)
        with np.errstate(invalid="ignore", over="ignore"):
            qa = np.quantile(np.asarray(a, dtype=float), probs, method="linear").tolist()
            qb = np.quantile(np.asarray(b, dtype=float), probs, method="linear").tolist()
        assert same_floats([x for x, _ in points], qa)
        assert same_floats([y for _, y in points], qb)


def test_importing_the_package_does_not_import_numpy():
    src = Path(plancheck.__file__).resolve().parents[1]
    code = "import sys, plancheck, plancheck.cli; print([m for m in sys.modules if m.startswith('numpy')])"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                            env={**os.environ, "PYTHONPATH": str(src)})
    assert result.stdout == "[]\n"
