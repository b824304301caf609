"""Decision-uncertainty calibration driven by formal verification.

The calibration "ground truth" is a model checker's verdict rather than a
human label: each plan is encoded to a Kripke structure and verified against
the specification set, and the confidences of the plans that pass become the
nonconformity scores (as one minus confidence).  Verification happens only
here, offline; online scoring is a single ECDF lookup, O(log n).
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from .checker import Verdict, check_all
from .conformal import EmptyCalibrationError, NonconformityDistribution
from .inputs import _NUMBER, _REQUIRED, _STR, _field, _items, numbered_lines
from .logic import LtlFormula, Vocabulary, load_specifications
from .plan_encoder import EmptyPlanError, NoPhrasesError, encode

CONFIDENCE_GATE = 0.5
FILTER_MODES = ("all", "any")
SCORE_MODES = ("confidence", "complement")


class EmptySpecificationSetError(ValueError):
    """Verification needs at least one specification."""


class EmptyAfterFilterError(EmptyCalibrationError):
    """No calibration record passed the verification filter."""


@dataclass(frozen=True)
class PlanRecord:
    """One calibration item: plan text, satisfaction confidence, observed objects, task."""

    plan: str
    confidence: float
    observed: frozenset[str]
    task: str = ""

    def __post_init__(self):
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence must lie in [0, 1], got {self.confidence}")


class SpecificationSet:
    """Named formulas, all bound to one vocabulary; names are unique."""

    def __init__(self, pairs: Iterable[tuple[str, LtlFormula]]):
        self._pairs = tuple(pairs)
        names = [name for name, _ in self._pairs]
        if len(set(names)) != len(names):
            raise ValueError("duplicate specification names")

    @classmethod
    def load(cls, path: str | Path, vocab: Vocabulary) -> "SpecificationSet":
        return cls(load_specifications(path, vocab))

    def __iter__(self) -> Iterator[tuple[str, LtlFormula]]:
        return iter(self._pairs)

    def __len__(self) -> int:
        return len(self._pairs)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self._pairs)

    def text(self) -> str:
        """Human-readable rule listing, e.g. for satisfaction prompts."""
        from .logic import format_formula

        return "\n".join(f"{name}: {format_formula(f)}" for name, f in self._pairs)


@dataclass(frozen=True)
class DecisionAssessment:
    """Verification outcome for one plan record."""

    verdicts: tuple[tuple[str, Verdict], ...]
    satisfied_all: bool
    encodable: bool = True
    error: str | None = None
    nonconformity: float | None = None

    @property
    def satisfied_any(self) -> bool:
        return any(v.holds for _, v in self.verdicts)


@dataclass(frozen=True)
class CalibrationReport:
    total: int
    included: int
    unencodable: int

    @property
    def excluded(self) -> int:
        return self.total - self.included - self.unencodable


def verify_plan(
    record: PlanRecord, specs: SpecificationSet, vocab: Vocabulary
) -> DecisionAssessment:
    """Encode the plan and check every specification; parse failures become a
    distinguished unencodable assessment rather than an exception."""
    if len(specs) == 0:
        raise EmptySpecificationSetError("specification set is empty")
    try:
        structure = encode(record.plan, vocab, record.observed)
    except (EmptyPlanError, NoPhrasesError) as exc:
        return DecisionAssessment(
            verdicts=(),
            satisfied_all=False,
            encodable=False,
            error=str(exc),
        )
    verdicts = tuple(check_all(structure, specs))
    return DecisionAssessment(
        verdicts=verdicts,
        satisfied_all=all(v.holds for _, v in verdicts),
        nonconformity=1.0 - record.confidence,
    )


def _passes(assessment: DecisionAssessment, filter_mode: str) -> bool:
    if filter_mode == "all":
        return assessment.satisfied_all
    return assessment.satisfied_any


def calibrate_decision(
    records: Iterable[PlanRecord],
    specs: SpecificationSet,
    vocab: Vocabulary,
    filter_mode: str = "all",
) -> tuple[NonconformityDistribution, CalibrationReport]:
    """Verify every record and build the score distribution from the passers.

    ``filter_mode`` "all" keeps records whose plan satisfies every
    specification (the default, matching the universal prediction-band
    reading); "any" keeps records satisfying at least one.  Aggregation is
    order-independent.  One pass: only the passers' scores are kept.
    """
    if filter_mode not in FILTER_MODES:
        raise ValueError(f"filter_mode must be one of {FILTER_MODES}, got {filter_mode!r}")
    scores: list[float] = []
    total = unencodable = 0
    for record in records:
        assessment = verify_plan(record, specs, vocab)
        total += 1
        if not assessment.encodable:
            unencodable += 1
        elif _passes(assessment, filter_mode):
            scores.append(assessment.nonconformity)
    report = CalibrationReport(total=total, included=len(scores), unencodable=unencodable)
    if not scores:
        raise EmptyAfterFilterError(
            f"no record passed the {filter_mode!r} filter "
            f"(total={report.total}, unencodable={report.unencodable})"
        )
    return NonconformityDistribution(scores), report


def decision_score(
    confidence: float, dist: NonconformityDistribution, mode: str = "confidence"
) -> float | None:
    """Calibrated estimate that the plan satisfies the specifications.

    Plans whose satisfaction confidence is below the 0.5 gate are disregarded
    (returns None); the boundary itself is scored.  The default mode evaluates
    the score ECDF at the confidence value; the ``complement`` mode instead
    treats one minus confidence as a nonconformity score and returns the
    complement of its calibration rank.  Both are monotone in confidence.
    """
    if not 0.0 <= confidence <= 1.0:
        raise ValueError(f"confidence must lie in [0, 1], got {confidence}")
    if mode not in SCORE_MODES:
        raise ValueError(f"mode must be one of {SCORE_MODES}, got {mode!r}")
    if confidence < CONFIDENCE_GATE:
        return None
    if mode == "confidence":
        return dist.ecdf(confidence)
    return 1.0 - dist.ecdf(1.0 - confidence)


def execution_gate(u_d: float, t_d: float) -> bool:
    """Execute the plan only when the decision score reaches the threshold (inclusive)."""
    if not 0.0 <= u_d <= 1.0:
        raise ValueError(f"decision score must lie in [0, 1], got {u_d}")
    if not 0.0 <= t_d <= 1.0:
        raise ValueError(f"threshold must lie in [0, 1], got {t_d}")
    return u_d >= t_d


def _plan_record(obj, confidence=_REQUIRED) -> PlanRecord:
    """One decoded record line; an absent or null confidence takes ``confidence``, if given."""
    return PlanRecord(
        plan=_field(obj, "plan", _STR),
        confidence=float(_field(obj, "confidence", _NUMBER, confidence)),
        observed=frozenset(_items(obj, "objects", _STR, ())),
        task=_field(obj, "task", _STR, ""),
    )


def load_plan_records(path: str | Path) -> list[PlanRecord]:
    """Read the line-JSON calibration file: task, plan, confidence, objects."""
    with numbered_lines(path) as lines:
        return [_plan_record(json.loads(line)) for line in lines]
