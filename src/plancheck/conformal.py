"""Nonconformity distributions, split-conformal quantiles, and confidence scoring.

The nonconformity density is represented implicitly by the empirical CDF of
the sorted score multiset: every downstream formula only ever integrates the
density from zero, which the ECDF computes exactly and reproducibly.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

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


def validate_confidence_vector(entries: Sequence[float]) -> tuple[float, ...]:
    """Check a class-confidence vector: k >= 2, entries in [0, 1], sum 1 ± 1e-6.

    Invalid input is rejected, never repaired.  Summed left to right, as numpy does for k < 8.
    """
    try:
        vector = tuple(map(float, entries))
    except (TypeError, ValueError) as exc:
        raise ConfidenceVectorError(f"confidence entries must be numbers: {exc}") from None
    if len(vector) < 2 or isinstance(entries, str):
        raise ConfidenceVectorError(f"need at least 2 class entries, got {entries!r}")
    total = 0.0
    for p in vector:
        if not 0.0 <= p <= 1.0:
            if not all(map(math.isfinite, vector)):
                raise ConfidenceVectorError("confidence vector contains NaN or infinity")
            raise ConfidenceVectorError("confidence entries must lie in [0, 1]")
        total += p
    if abs(total - 1.0) > SUM_TOLERANCE:
        raise ConfidenceVectorError(f"confidence entries sum to {total}, expected 1")
    return vector


@dataclass(frozen=True)
class PerceptionSample:
    """One calibration record: image id, confidence vector, true class index."""

    image_id: str
    true_label: int
    confidence: tuple[float, ...]

    def __post_init__(self):
        # Keep the validated floats, not what the caller passed.
        object.__setattr__(self, "confidence", validate_confidence_vector(self.confidence))
        k = len(self.confidence)
        if not 0 <= self.true_label < k:
            raise ConfidenceVectorError(f"true label {self.true_label} out of range for {k} classes")


def _score(value) -> float:
    score = float(value)
    if not 0.0 <= score <= 1.0:
        raise ValueError(f"nonconformity score {score} outside [0, 1]")
    return score


class NonconformityDistribution:
    """Sorted nonconformity scores with ECDF and finite-sample quantile."""

    __slots__ = ("_scores",)

    def __init__(self, scores: Iterable[float]):
        ordered = tuple(sorted(map(_score, scores)))
        if not ordered:
            raise EmptyCalibrationError("a nonconformity distribution needs at least one score")
        self._scores = ordered

    def __len__(self) -> int:
        return len(self._scores)

    def __eq__(self, other) -> bool:
        if not isinstance(other, NonconformityDistribution):
            return NotImplemented
        return self._scores == other._scores

    @property
    def scores(self) -> tuple[float, ...]:
        return self._scores

    def ecdf(self, x: float) -> float:
        """Fraction of scores <= x; a right-continuous step function."""
        return bisect_right(self._scores, x) / len(self._scores)

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
        return self._scores[rank - 1]

    def save(self, path: str | Path) -> None:
        """Persist as one score per line so scoring can run in other processes."""
        Path(path).write_text("".join(f"{s!r}\n" for s in self._scores), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "NonconformityDistribution":
        """Read one score per line; a bad score is reported with its line."""
        with numbered_lines(path) as lines:
            scores = [_score(line) for line in lines]
        if not scores:
            raise EmptyCalibrationError(f"no nonconformity scores in {path}")
        return cls(scores)


def perception_nonconformity(samples: Sequence[PerceptionSample]) -> NonconformityDistribution:
    """Scores are one minus the confidence assigned to the true class."""
    if not samples:
        raise EmptyCalibrationError("perception calibration set is empty")
    return NonconformityDistribution(
        1.0 - sample.confidence[sample.true_label] for sample in samples
    )


def predict(confidence: Sequence[float]) -> int:
    """Index of the largest confidence; ties break toward the lowest index."""
    vector = validate_confidence_vector(confidence)
    return vector.index(max(vector))


def second_largest(confidence: Sequence[float]) -> float:
    return sorted(validate_confidence_vector(confidence))[-2]


def perception_score(confidence: Sequence[float], dist: NonconformityDistribution) -> float:
    """Calibrated lower bound on correct identification; lower means more uncertain.

    Evaluates the ECDF at one minus the runner-up confidence: a larger
    runner-up shrinks that evaluation point and can only lower the score.
    """
    return dist.ecdf(1.0 - second_largest(confidence))


def _linear_quantiles(sample: Sequence[float], m: int) -> list[float]:
    """``np.quantile(sample, np.arange(m) / (m - 1), method="linear")``, float
    for float, down to numpy reading the last score as index -1."""
    ordered = sorted(map(float, sample))
    if not ordered:
        raise EmptySampleError("both samples must be nonempty")
    if any(map(math.isnan, ordered)):
        raise ValueError("samples must not contain NaN")
    last, quantiles = len(ordered) - 1, []
    for i in range(m):
        v = last * (i / (m - 1))
        j = math.floor(v) if v < last else -1
        a = ordered[j]
        b = ordered[j + 1] if j >= 0 else a
        g, d = v - j, b - a
        quantiles.append(a + d * g if g < 0.5 else b - d * (1 - g))
    return quantiles


def qq_points(a: Sequence[float], b: Sequence[float], m: int) -> list[tuple[float, float]]:
    """m quantile pairs of the two samples at evenly spaced probabilities.

    Quantiles interpolate linearly between sorted order statistics, so equal
    samples land exactly on the diagonal.
    """
    if m < 2:
        raise ValueError(f"need at least 2 points, got {m}")
    return list(zip(_linear_quantiles(a, m), _linear_quantiles(b, m)))


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
