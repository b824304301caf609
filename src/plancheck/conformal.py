"""Nonconformity distributions, split-conformal quantiles, and confidence scoring.

The nonconformity density is represented implicitly by the empirical CDF of
the sorted score multiset: every downstream formula only ever integrates the
density from zero, which the ECDF computes exactly and reproducibly.  A
histogram emitter exists for display parity only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .inputs import numbered_lines


class EmptyCalibrationError(ValueError):
    """No calibration samples / scores supplied."""


class EmptySampleError(ValueError):
    """A sample list that must be nonempty is empty."""


class InvalidLevelError(ValueError):
    """Quantile level outside the open interval (0, 1)."""


class ConfidenceVectorError(ValueError):
    """Confidence vector fails validation (range, sum, or arity)."""


SUM_TOLERANCE = 1e-6


def validate_confidence_vector(entries: Sequence[float]) -> np.ndarray:
    """Check a class-confidence vector: k >= 2, entries in [0, 1], sum 1 ± 1e-6.

    Invalid input is rejected, never repaired.
    """
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


@dataclass(frozen=True)
class PerceptionSample:
    """One calibration record: image id, confidence vector, true class index."""

    image_id: str
    true_label: int
    confidence: tuple[float, ...]

    def __post_init__(self):
        arr = validate_confidence_vector(self.confidence)
        if not 0 <= self.true_label < arr.size:
            raise ConfidenceVectorError(
                f"true label {self.true_label} out of range for {arr.size} classes"
            )


def _score(value) -> float:
    score = float(value)
    if not 0.0 <= score <= 1.0:
        raise ValueError(f"nonconformity score {score} outside [0, 1]")
    return score


class NonconformityDistribution:
    """Sorted nonconformity scores with ECDF and finite-sample quantile."""

    __slots__ = ("_scores",)

    def __init__(self, scores: Iterable[float]):
        # Checked one at a time, so that a bad score read from a file is
        # reported with its line.
        arr = np.fromiter(map(_score, scores), dtype=float)
        if arr.size == 0:
            raise EmptyCalibrationError("a nonconformity distribution needs at least one score")
        arr = np.sort(arr)
        arr.setflags(write=False)
        self._scores = arr

    def __len__(self) -> int:
        return int(self._scores.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, NonconformityDistribution):
            return NotImplemented
        return np.array_equal(self._scores, other._scores)

    @property
    def scores(self) -> np.ndarray:
        return self._scores

    def ecdf(self, x: float) -> float:
        """Fraction of scores <= x; a right-continuous step function."""
        return float(np.searchsorted(self._scores, x, side="right")) / len(self)

    def quantile(self, level: float) -> float:
        """The ceil((n+1) * level)-th smallest score, clamped to the largest.

        The finite-sample form makes the split-conformal coverage guarantee
        hold exactly.  A tiny epsilon shields the ceiling from float noise in
        the product.
        """
        if not 0.0 < level < 1.0:
            raise InvalidLevelError(f"quantile level must be in (0, 1), got {level}")
        n = len(self)
        rank = math.ceil((n + 1) * level - 1e-9)
        rank = min(max(rank, 1), n)
        return float(self._scores[rank - 1])

    def histogram(self, bins: int = 50) -> tuple[list[int], list[float]]:
        """Counts over [0, 1]; display parity with the usual 50-bin plots."""
        counts, edges = np.histogram(self._scores, bins=bins, range=(0.0, 1.0))
        return counts.tolist(), edges.tolist()

    def save(self, path: str | Path) -> None:
        """Persist as one score per line so scoring can run in other processes."""
        Path(path).write_text(
            "".join(f"{repr(float(s))}\n" for s in self._scores), encoding="utf-8"
        )

    @classmethod
    def load(cls, path: str | Path) -> "NonconformityDistribution":
        """Read one score per line."""
        with numbered_lines(path) as lines:
            return cls(lines)


def perception_nonconformity(samples: Sequence[PerceptionSample]) -> NonconformityDistribution:
    """Scores are one minus the confidence assigned to the true class."""
    if not samples:
        raise EmptyCalibrationError("perception calibration set is empty")
    return NonconformityDistribution(
        1.0 - sample.confidence[sample.true_label] for sample in samples
    )


def predict(confidence: Sequence[float]) -> int:
    """Index of the largest confidence; ties break toward the lowest index."""
    arr = validate_confidence_vector(confidence)
    return int(np.argmax(arr))


def second_largest(confidence: Sequence[float]) -> float:
    arr = validate_confidence_vector(confidence)
    return float(np.partition(arr, -2)[-2])


def perception_score(
    confidence: Sequence[float], dist: NonconformityDistribution
) -> float:
    """Calibrated lower bound on correct identification; lower means more uncertain.

    Evaluates the ECDF at one minus the runner-up confidence: a larger
    runner-up shrinks that evaluation point and can only lower the score.
    """
    return dist.ecdf(1.0 - second_largest(confidence))


def qq_points(
    a: Sequence[float], b: Sequence[float], m: int
) -> list[tuple[float, float]]:
    """m quantile pairs of the two samples at evenly spaced probabilities.

    Quantiles interpolate linearly between sorted order statistics, so equal
    samples land exactly on the diagonal.
    """
    if m < 2:
        raise ValueError(f"need at least 2 points, got {m}")
    arr_a = np.asarray(list(a), dtype=float)
    arr_b = np.asarray(list(b), dtype=float)
    if arr_a.size == 0 or arr_b.size == 0:
        raise EmptySampleError("both samples must be nonempty")
    probs = np.arange(m) / (m - 1)
    qa = np.quantile(arr_a, probs, method="linear")
    qb = np.quantile(arr_b, probs, method="linear")
    return [(float(x), float(y)) for x, y in zip(qa, qb)]


def load_perception_calibration(path: str | Path) -> list[PerceptionSample]:
    """Read the calibration file: a ``k = <int>`` header, then one record per
    line as ``image_id, true_label_index, p0 p1 ... p(k-1)``; ``#`` starts a
    comment line."""
    k, samples = None, []
    with numbered_lines(path) as lines:
        for line in lines:
            if line.startswith("#"):
                continue
            if k is None:
                header = line.replace(" ", "")
                if not header.startswith("k="):
                    raise ValueError("first line must declare the class count as 'k = <int>'")
                k = int(header[2:])
                continue
            fields = [f.strip() for f in line.split(",")]
            if len(fields) != 3:
                raise ValueError("expected 'image_id, label, p0 p1 ...'")
            probs = tuple(float(p) for p in fields[2].split())
            if len(probs) != k:
                raise ValueError(f"expected {k} probabilities, got {len(probs)}")
            samples.append(PerceptionSample(fields[0], int(fields[1]), probs))
    if not samples:
        raise EmptyCalibrationError(f"no calibration records in {path}")
    return samples
