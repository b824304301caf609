"""Uncertainty-driven interventions: active sensing and refinement data generation.

Active sensing pulls observations from any iterable, one per attempt, until
one reaches the perception threshold: a scripted scene is a list of
observations, and a robot's re-observation loop (rotate, switch camera,
recapture) is a generator.  Refinement generation samples (image, task) pairs
with a seeded PRNG, skips high-uncertainty images, queries the model, verifies
the plan, and keeps only fully compliant data — so the emitted dataset needs
no human labels and every datum re-verifies.

Image-level perception score aggregates per-detection scores with ``min``:
the bound covers identifying *all* objects, and min never overstates certainty
without an independence assumption.
"""
from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .clients import ClientError, query_plan, query_satisfaction
from .conformal import NonconformityDistribution, perception_score
from .fmdp import DecisionAssessment, PlanRecord, SpecificationSet, decision_score, verify_plan
from .inputs import _INT, _LIST, _NUMBER, _STR, _field, _items, numbered_lines
from .logic import Vocabulary


class NoPairsError(ValueError):
    """No (image, task) key has both a compliant and a violating plan."""


class ObservationProviderError(RuntimeError):
    """Pulling an observation failed; carries the attempt number."""

    def __init__(self, message: str, attempt: int):
        super().__init__(message)
        self.attempt = attempt


class BudgetExhaustedError(RuntimeError):
    """Refinement loop ran out of iterations; carries the partial dataset."""

    def __init__(self, message: str, partial: list["RefinementDatum"], report: "RefinementReport"):
        super().__init__(message)
        self.partial = partial
        self.report = report


@dataclass(frozen=True)
class Detection:
    """One detected object: reported label, true class index, class confidences."""

    label_hypothesis: str
    probs: tuple[float, ...]
    true_label: int | None = None

    def __post_init__(self):
        n = len(self.probs)
        if self.true_label is not None and not 0 <= self.true_label < n:
            raise ValueError(f"true_label {self.true_label} out of range for {n} classes")


@dataclass(frozen=True)
class Observation:
    image_id: str
    detections: tuple[Detection, ...]
    source: str = ""

    def __post_init__(self):
        if not self.detections:
            raise ValueError("an observation needs at least one detection")

    def reported_labels(self) -> frozenset[str]:
        return frozenset(d.label_hypothesis for d in self.detections)


@dataclass(frozen=True)
class SensingOutcome:
    accepted: bool
    attempts: int
    observation: Observation | None = None
    score: float | None = None
    best_score: float | None = None


@dataclass(frozen=True)
class RefinementDatum:
    """A verified fine-tuning example plus the provenance that justified it."""

    image_id: str
    task: str
    plan: str
    u_p: float
    verdicts: tuple[tuple[str, bool], ...]
    confidence: float


@dataclass(frozen=True)
class RefinementReport:
    iterations: int
    collected: int
    skipped_low_perception: int
    spec_failures: int
    unencodable: int
    model_errors: int


@dataclass(frozen=True)
class DpoPair:
    image_id: str
    task: str
    chosen: str
    rejected: str


@dataclass(frozen=True)
class Scenario:
    """One scripted scene: an observation sequence plus an optional plan script.

    ``objects`` optionally overrides the perceptor-reported labels when a
    scene scripts its own observed-object set.
    """

    scene_id: str
    observations: tuple[Observation, ...]
    plan: str | None = None
    confidence: float | None = None
    task: str = ""
    objects: tuple[str, ...] | None = None

    def __post_init__(self):
        if not self.observations:
            raise ValueError("a scenario needs at least one observation")
        if self.confidence is not None and not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence must lie in [0, 1], got {self.confidence}")

    def observed_objects(self, observation: Observation) -> frozenset[str]:
        if self.objects is not None:
            return frozenset(self.objects)
        return observation.reported_labels()


@dataclass(frozen=True)
class SweepRow:
    threshold: float
    accuracy: float
    as_frequency: float
    satisfy_prob: float


def image_uncertainty(obs: Observation, dist: NonconformityDistribution) -> float:
    """Image-level perception score: the lowest over all detections."""
    return min([perception_score(d.probs, dist) for d in obs.detections])


def active_sense(
    observations: Iterable[Observation],
    dist: NonconformityDistribution,
    t_p: float,
    max_attempts: int,
) -> SensingOutcome:
    """Re-observe until an image clears the perception threshold.

    Pulls one observation per attempt, never ahead, and returns the first
    passing one (no best-of search); exhausts after ``max_attempts`` pulls or
    when ``observations`` runs dry.
    """
    if not 0.0 <= t_p <= 1.0:
        raise ValueError(f"perception threshold must lie in [0, 1], got {t_p}")
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
    pulls = iter(observations)
    best: float | None = None
    for attempt in range(1, max_attempts + 1):
        try:
            obs = next(pulls)
        except StopIteration:
            return SensingOutcome(accepted=False, attempts=attempt - 1, best_score=best)
        except Exception as exc:
            raise ObservationProviderError(
                f"observation pull failed on attempt {attempt}: {exc}", attempt
            ) from exc
        score = image_uncertainty(obs, dist)
        if best is None or score > best:
            best = score
        if score >= t_p:
            return SensingOutcome(
                accepted=True, attempts=attempt, observation=obs, score=score, best_score=best
            )
    return SensingOutcome(accepted=False, attempts=max_attempts, best_score=best)


def _query_chain(client, image: str, task: str, specs_text: str) -> tuple[str, float]:
    """One pair's model round-trips: the plan, then its yes-confidence."""
    plan = query_plan(client, image, task)
    return plan, query_satisfaction(client, plan, specs_text, image=image, task=task)


def generate_refinement_dataset(
    task_bank: Sequence[str],
    images: Sequence[Observation],
    client,
    vocab: Vocabulary,
    specs: SpecificationSet,
    dist: NonconformityDistribution,
    sample_size: int,
    t_p: float,
    budget: int,
    seed: int,
) -> tuple[list[RefinementDatum], RefinementReport]:
    """Sample (image, task) pairs, skip uncertain images, keep verified plans.

    Sampling is uniform over the image set and task bank with a seeded PRNG,
    so a fixed seed over fixed fixtures is byte-deterministic.  Stops once
    ``sample_size`` data are collected; if ``budget`` iterations pass first, a
    BudgetExhaustedError carrying the partial dataset is raised.

    Up to ``client.max_in_flight`` pairs (1 when the client has no such
    attribute) have their model queries running at once, on worker threads.
    Scoring, verification and commits stay on the calling thread in draw
    order, so the result is the serial loop's for every window size.  Pairs
    drawn past the stop point, at most ``max_in_flight - 1`` with queries,
    are dropped along with their errors; the client still audits their
    requests.  No request outlives the call.
    """
    if not task_bank or not images:
        raise ValueError("task bank and image set must be nonempty")
    if sample_size < 1:
        raise ValueError(f"sample_size must be >= 1, got {sample_size}")
    if budget < sample_size:
        raise ValueError(f"budget ({budget}) must be >= sample_size ({sample_size})")
    rng = random.Random(seed)
    specs_text = specs.text()
    window = getattr(client, "max_in_flight", 1)
    from concurrent.futures import ThreadPoolExecutor  # deferred: slow to import

    pool = ThreadPoolExecutor(window, thread_name_prefix="refine")
    # Drawn, uncommitted pairs: (obs, task, u_p or the error scoring raised,
    # the queries' outcome or None when the image is skipped).
    pending: deque = deque()
    drawn = in_flight = 0
    draw_limit = budget
    data: list[RefinementDatum] = []
    skipped = spec_failures = unencodable = model_errors = iterations = 0
    try:
        while iterations < budget and len(data) < sample_size:
            while in_flight < window and drawn < draw_limit:
                drawn += 1
                obs = images[rng.randrange(len(images))]
                task = task_bank[rng.randrange(len(task_bank))]
                try:
                    u_p = image_uncertainty(obs, dist)
                except Exception as exc:  # raised if and when this pair is committed
                    pending.append((obs, task, exc, None))
                    draw_limit = drawn  # no pair after it can be committed
                    continue
                outcome = None
                if u_p >= t_p:
                    outcome = pool.submit(_query_chain, client, obs.image_id, task, specs_text).result
                    in_flight += 1
                pending.append((obs, task, u_p, outcome))
            obs, task, u_p, outcome = pending.popleft()
            iterations += 1
            if isinstance(u_p, Exception):
                raise u_p
            if outcome is None:
                skipped += 1
                continue
            in_flight -= 1
            try:
                plan, confidence = outcome()
            except ClientError:
                model_errors += 1
                continue
            record = PlanRecord(plan=plan, confidence=confidence, observed=obs.reported_labels(), task=task)
            assessment = verify_plan(record, specs, vocab)
            if not assessment.encodable:
                unencodable += 1
                continue
            if not assessment.satisfied_all:
                spec_failures += 1
                continue
            data.append(
                RefinementDatum(
                    image_id=obs.image_id,
                    task=task,
                    plan=plan,
                    u_p=u_p,
                    verdicts=tuple((name, v.holds) for name, v in assessment.verdicts),
                    confidence=confidence,
                )
            )
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    report = RefinementReport(
        iterations=iterations,
        collected=len(data),
        skipped_low_perception=skipped,
        spec_failures=spec_failures,
        unencodable=unencodable,
        model_errors=model_errors,
    )
    if len(data) < sample_size:
        raise BudgetExhaustedError(
            f"collected {len(data)}/{sample_size} data in {iterations} iterations",
            partial=data,
            report=report,
        )
    return data, report


def dpo_pairs(
    assessed: Iterable[tuple[str, str, str, DecisionAssessment]],
) -> list[DpoPair]:
    """Cross compliant with violating plans per (image, task) key.

    Positives satisfy every specification; negatives are encodable plans that
    do not.  Unencodable records join neither side.
    """
    buckets: dict[tuple[str, str], tuple[list[str], list[str]]] = {}
    for image_id, task, plan, assessment in assessed:
        if not assessment.encodable:
            continue
        positives, negatives = buckets.setdefault((image_id, task), ([], []))
        (positives if assessment.satisfied_all else negatives).append(plan)
    pairs = []
    for (image_id, task), (positives, negatives) in buckets.items():
        for chosen in positives:
            for rejected in negatives:
                pairs.append(DpoPair(image_id, task, chosen, rejected))
    if not pairs:
        raise NoPairsError("no (image, task) key has both compliant and violating plans")
    return pairs


def _observation_accuracy(obs: Observation) -> float:
    """Fraction of detections whose top class (the lowest on ties) is the true
    class; only for observations already scored, which validated every ``probs``."""
    scored = [d for d in obs.detections if d.true_label is not None]
    if not scored:
        return 0.0
    correct = sum(1 for d in scored if d.probs.index(max(d.probs)) == d.true_label)
    return correct / len(scored)


def threshold_sweep(
    scenes: Sequence[Scenario],
    thresholds: Sequence[float],
    dist_p: NonconformityDistribution,
    dist_d: NonconformityDistribution,
    specs: SpecificationSet,
    vocab: Vocabulary,
) -> list[SweepRow]:
    """Shared perception/decision threshold study over a scripted corpus.

    Per threshold t (used as both t_p and t_d): accuracy is the mean
    correct-classification fraction of the observation that sensing settled
    on; AS frequency is the mean number of extra observations (attempts minus
    one); satisfy prob is the fraction of executed plans meeting every
    specification (NaN when nothing executes).
    """
    if not scenes:
        raise ValueError("scenario corpus is empty")
    # Sensing at t settles on the first observation scoring >= t, or on the
    # last one, exactly as active_sense with one attempt per observation.
    # Nothing else depends on the threshold, so per call each image is scored
    # at most once (lazily, in observation order), and each settled
    # observation's accuracy, each scene's decision score and each distinct
    # (plan, settled objects) verdict is computed once.
    pulled: list[list[float]] = [[] for _ in scenes]
    accuracy: dict[tuple[int, int], float] = {}
    u_ds: dict[int, float | None] = {}
    satisfied: dict[tuple[str, frozenset[str]], bool] = {}
    rows = []
    for t in thresholds:
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"threshold must lie in [0, 1], got {t}")
        accuracies = []
        extra_observations = []
        executed_ok: list[float] = []
        for i, scene in enumerate(scenes):
            scores = pulled[i]
            k = next((j for j, score in enumerate(scores) if score >= t), None)
            while k is None and len(scores) < len(scene.observations):
                scores.append(image_uncertainty(scene.observations[len(scores)], dist_p))
                if scores[-1] >= t:
                    k = len(scores) - 1
            if k is None:
                k = len(scene.observations) - 1
            settled = scene.observations[k]
            if (i, k) not in accuracy:
                accuracy[i, k] = _observation_accuracy(settled)
            accuracies.append(accuracy[i, k])
            extra_observations.append(k)
            if scene.plan is None or scene.confidence is None:
                continue
            if i not in u_ds:
                u_ds[i] = decision_score(scene.confidence, dist_d)
            u_d = u_ds[i]
            if u_d is None or u_d < t:
                continue
            observed = scene.observed_objects(settled)
            key = (scene.plan, observed)
            if key not in satisfied:
                record = PlanRecord(
                    plan=scene.plan, confidence=scene.confidence, observed=observed, task=scene.task
                )
                satisfied[key] = verify_plan(record, specs, vocab).satisfied_all
            executed_ok.append(1.0 if satisfied[key] else 0.0)
        rows.append(
            SweepRow(
                threshold=float(t),
                accuracy=sum(accuracies) / len(accuracies),
                as_frequency=sum(extra_observations) / len(extra_observations),
                satisfy_prob=(sum(executed_ok) / len(executed_ok)) if executed_ok else float("nan"),
            )
        )
    return rows


def sweep_to_csv(rows: Iterable[SweepRow]) -> str:
    lines = ["threshold,accuracy,as_frequency,satisfy_prob"]
    for row in rows:
        lines.append(
            f"{row.threshold:g},{row.accuracy:.6f},{row.as_frequency:.6f},{row.satisfy_prob:.6f}"
        )
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# File formats
# --------------------------------------------------------------------------

def _observation_from_json(obj, scene_id: str, index: int) -> Observation:
    detections = []
    for j, d in enumerate(_field(obj, "detections", _LIST), 1):
        try:
            label = _field(d, "label_hypothesis", _STR)
            probs = tuple(map(float, _items(d, "probs", _NUMBER)))
            detections.append(Detection(label, probs, _field(d, "true_label", _INT, None)))
        except ValueError as exc:
            raise ValueError(f"detection {j}: {exc}") from exc
    return Observation(
        image_id=_field(obj, "image_id", _STR, f"{scene_id}/{index}"),
        detections=tuple(detections),
        source=_field(obj, "source", _STR, ""),
    )


def _scenario_from_json(obj) -> Scenario:
    scene_id = _field(obj, "scene_id", _STR)
    observations = []
    for i, o in enumerate(_field(obj, "observations", _LIST), 1):
        try:
            observations.append(_observation_from_json(o, scene_id, i))
        except ValueError as exc:
            raise ValueError(f"observation {i}: {exc}") from exc
    confidence = _field(obj, "confidence", _NUMBER, None)
    objects = _items(obj, "objects", _STR, None)
    return Scenario(
        scene_id=scene_id,
        observations=tuple(observations),
        plan=_field(obj, "plan", _STR, None),
        confidence=float(confidence) if confidence is not None else None,
        task=_field(obj, "task", _STR, ""),
        objects=tuple(objects) if objects is not None else None,
    )


def load_scenarios(path: str | Path) -> list[Scenario]:
    """Read the line-JSON scenario corpus (scene_id, observations, plan script).

    A malformed line raises ValueError naming ``path:lineno``.
    """
    with numbered_lines(path) as lines:
        return [_scenario_from_json(json.loads(line)) for line in lines]


def _save_jsonl(path: str | Path, rows: Iterable) -> None:
    """One JSON object per dataclass row, its fields in declaration order."""
    with Path(path).open("w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(asdict(row)) + "\n")


def save_refinement_dataset(path: str | Path, data: Iterable[RefinementDatum]) -> None:
    """Write the line-JSON training set; field order is fixed for determinism."""
    _save_jsonl(path, data)


def save_dpo_pairs(path: str | Path, pairs: Iterable[DpoPair]) -> None:
    _save_jsonl(path, pairs)
