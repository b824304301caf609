"""Shared fixtures: bundled data, random generators, and the synthetic classifier."""
from __future__ import annotations

import importlib.util
import random
from pathlib import Path

import numpy as np
import pytest

from plancheck import bundled_path
from plancheck.conformal import NonconformityDistribution, perception_score
from plancheck.fmdp import SpecificationSet
from plancheck.interventions import Detection, Observation
from plancheck.logic import (
    FALSE,
    TRUE,
    Always,
    And,
    Atom,
    Eventually,
    Implies,
    KripkeStructure,
    Next,
    Not,
    Or,
    Until,
    Vocabulary,
)
from plancheck.plan_encoder import encode

DEMO_PLAN = (
    "1. Wait at the red light.\n"
    "2. Wait for opposite cars.\n"
    "3. Turn left at the green light."
)

ATOMS = ("p", "q", "r")

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name: str):
    """Import ``perfbench/<name>.py`` by path; the benchmark is not a package."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def driving_vocab() -> Vocabulary:
    return Vocabulary.load(bundled_path("driving_vocabulary.txt"))


@pytest.fixture(scope="session")
def driving_specs(driving_vocab) -> SpecificationSet:
    return SpecificationSet.load(bundled_path("driving_specs.txt"), driving_vocab)


@pytest.fixture(scope="session")
def gating_specs(driving_vocab) -> SpecificationSet:
    return SpecificationSet.load(bundled_path("driving_gating_specs.txt"), driving_vocab)


@pytest.fixture(scope="session")
def demo_structure(driving_vocab) -> KripkeStructure:
    return encode(DEMO_PLAN, driving_vocab, {"car", "truck"})


@pytest.fixture(scope="session")
def perception_dist() -> NonconformityDistribution:
    from plancheck.conformal import load_perception_calibration, perception_nonconformity

    samples = load_perception_calibration(bundled_path("driving_perception_calibration.csv"))
    return perception_nonconformity(samples)


@pytest.fixture(scope="session")
def decision_dist(driving_vocab, gating_specs) -> NonconformityDistribution:
    from plancheck.fmdp import calibrate_decision, load_plan_records

    records = load_plan_records(bundled_path("driving_decision_calibration.jsonl"))
    dist, _ = calibrate_decision(records, gating_specs, driving_vocab)
    return dist


@pytest.fixture(scope="session")
def sweep_inputs(driving_vocab, gating_specs, perception_dist, decision_dist):
    from plancheck.interventions import load_scenarios

    scenes = load_scenarios(bundled_path("driving_sweep_corpus.jsonl"))
    return scenes, perception_dist, decision_dist, gating_specs, driving_vocab


# --------------------------------------------------------------------------
# Random generators for the oracle-equivalence suites
# --------------------------------------------------------------------------

def random_formula(rng: random.Random, depth: int):
    """Random LTL formula over ATOMS, depth-bounded."""
    if depth == 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.8:
            return Atom(rng.choice(ATOMS))
        return TRUE if roll < 0.9 else FALSE
    op = rng.choice(("not", "next", "always", "eventually", "and", "or", "implies", "until"))
    if op == "not":
        return Not(random_formula(rng, depth - 1))
    if op == "next":
        return Next(random_formula(rng, depth - 1))
    if op == "always":
        return Always(random_formula(rng, depth - 1))
    if op == "eventually":
        return Eventually(random_formula(rng, depth - 1))
    left = random_formula(rng, depth - 1)
    right = random_formula(rng, depth - 1)
    return {"and": And, "or": Or, "implies": Implies, "until": Until}[op](left, right)


def random_chain(rng: random.Random, max_states: int = 10) -> KripkeStructure:
    """Deterministic chain with a terminal self-loop, the encoder's image shape."""
    inner = rng.randint(0, max_states - 2)
    states = ["q0"] + [f"q{i}" for i in range(1, inner + 1)] + ["q_done"]
    labeling = {
        s: frozenset(a for a in ATOMS if rng.random() < 0.4) for s in states
    }
    transitions = {(states[i], states[i + 1]) for i in range(len(states) - 1)}
    transitions.add(("q_done", "q_done"))
    return KripkeStructure(tuple(states), frozenset({"q0"}), frozenset(transitions), labeling)


def random_lasso_labels(rng: random.Random, max_len: int = 4):
    """A synthetic lasso: state names plus a labeling over ATOMS."""
    from plancheck.logic import LassoTrace

    prefix_len = rng.randint(0, max_len)
    cycle_len = rng.randint(1, max_len)
    names = [f"s{i}" for i in range(prefix_len + cycle_len)]
    labeling = {
        name: frozenset(a for a in ATOMS if rng.random() < 0.5) for name in names
    }
    trace = LassoTrace(tuple(names[:prefix_len]), tuple(names[prefix_len:]))
    return trace, labeling


# --------------------------------------------------------------------------
# Synthetic classifier (posterior-calibrated, k = 5)
# --------------------------------------------------------------------------

def synthetic_classifier(rng: np.random.Generator, n: int, k: int = 5):
    """Confidence vectors that are the exact label posterior, labels drawn from them.

    Two-spike shape: a dominant class in (0.80, 0.97), a runner-up taking most
    of the remainder.  Because labels are drawn from the vectors themselves,
    per-instance accuracy equals the top confidence.
    """
    top = rng.uniform(0.80, 0.97, size=n)
    beta = rng.uniform(0.85, 0.95, size=n)
    dominant = rng.integers(k, size=n)
    vectors = np.zeros((n, k))
    for i in range(n):
        others = [c for c in range(k) if c != dominant[i]]
        vectors[i, dominant[i]] = top[i]
        vectors[i, others[0]] = beta[i] * (1 - top[i])
        for c in others[1:]:
            vectors[i, c] = (1 - top[i]) * (1 - beta[i]) / (k - 2)
    labels = (vectors.cumsum(axis=1) > rng.random(n)[:, None]).argmax(axis=1)
    return vectors, labels


# --------------------------------------------------------------------------
# Detections with exact perception scores
# --------------------------------------------------------------------------

STAIRCASE_SCORES = [round(0.52 + 0.04 * i, 4) for i in range(10)]


@pytest.fixture(scope="session")
def staircase_dist() -> NonconformityDistribution:
    """Ten scores 0.52 .. 0.88: ECDF values land on k/10 for targets in between."""
    return NonconformityDistribution(STAIRCASE_SCORES)


def detection_with_score(dist: NonconformityDistribution, target: float) -> Detection:
    """Craft a detection whose perception score under ``dist`` equals ``target``."""
    scores = list(dist.scores)
    n = len(scores)
    k = round(target * n)
    assert abs(k / n - target) < 1e-9, f"target {target} not on the {n}-step staircase"
    lo = scores[k - 1] if k > 0 else 0.0
    hi = scores[k] if k < n else 1.0
    x = max((lo + hi) / 2, 0.515)
    assert lo <= x < hi or (k == n and x >= lo)
    second = round(1.0 - x, 6)
    top = round(1.0 - second - 0.02, 6)
    rest = round((1.0 - top - second) / 3, 6)
    probs = (top, second, rest, rest, round(1.0 - top - second - 2 * rest, 6))
    det = Detection(label_hypothesis="car", probs=probs, true_label=0)
    assert abs(perception_score(probs, dist) - target) < 1e-9
    return det


def observation_with_scores(
    dist: NonconformityDistribution, targets, image_id: str = "img"
) -> Observation:
    return Observation(
        image_id=image_id,
        detections=tuple(detection_with_score(dist, t) for t in targets),
    )
