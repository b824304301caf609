"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Expected values here are either exact reproductions of the worked
example, independently computed oracles (trace evaluation, Monte-Carlo), or
frozen golden files audited by hand.
"""
import random
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    DEMO_PLAN,
    observation_with_scores,
    random_chain,
    random_formula,
    synthetic_classifier,
)
from plancheck import bundled_path
from plancheck.checker import check, export_smv
from plancheck.clients import ReplayModelClient
from plancheck.conformal import NonconformityDistribution, qq_points
from plancheck.fmdp import PlanRecord, decision_score, execution_gate, verify_plan
from plancheck.interventions import (
    BudgetExhaustedError,
    active_sense,
    generate_refinement_dataset,
    image_uncertainty,
    load_scenarios,
    save_refinement_dataset,
    sweep_to_csv,
    threshold_sweep,
)
from plancheck.logic import KripkeStructure, eval_trace, parse_formula, single_path
from plancheck.plan_encoder import encode

DATA = Path(__file__).parent / "data"
SUITE_SIZE = 1000


def report(number: int, description: str) -> None:
    print(f"ACCEPTANCE {number:02d} PASS - {description}")


@pytest.fixture(scope="module")
def oracle_suite():
    """Shared random (chain structure, formula) suite for criteria 1 and 2."""
    rng = random.Random(20250810)
    started = time.monotonic()
    results = []
    for _ in range(SUITE_SIZE):
        structure = random_chain(rng, max_states=10)
        formula = random_formula(rng, rng.randint(1, 4))
        verdict = check(structure, formula)
        oracle = eval_trace(formula, single_path(structure), structure.labeling)
        results.append((structure, formula, verdict, oracle))
    elapsed = time.monotonic() - started
    return results, elapsed


def test_criterion_01_checker_oracle_equivalence(oracle_suite):
    results, elapsed = oracle_suite
    agreements = sum(1 for _, _, verdict, oracle in results if verdict.holds == oracle)
    assert agreements == SUITE_SIZE, f"only {agreements}/{SUITE_SIZE} agree"
    assert elapsed < 30.0, f"suite took {elapsed:.1f}s"
    report(1, f"checker agrees with the trace oracle on {SUITE_SIZE}/{SUITE_SIZE} "
              f"random pairs in {elapsed:.1f}s")


def test_criterion_02_counterexample_soundness(oracle_suite):
    results, _ = oracle_suite
    failing = 0
    for structure, formula, verdict, _ in results:
        if verdict.holds:
            continue
        failing += 1
        cex = verdict.counterexample
        walk = list(cex.prefix) + list(cex.cycle)
        for src, dst in zip(walk, walk[1:]):
            assert (src, dst) in structure.transitions
        assert (cex.cycle[-1], cex.cycle[0]) in structure.transitions
        start = cex.prefix[0] if cex.prefix else cex.cycle[0]
        assert start in structure.initial
        assert eval_trace(formula, cex, structure.labeling) is False
    assert failing > 0
    report(2, f"all {failing} counterexamples are edge-valid and refute their formula")


def test_criterion_03_demo_reproduction(driving_vocab):
    structure = encode(DEMO_PLAN, driving_vocab, {"car", "truck"})
    expected = KripkeStructure(
        states=("q0", "q1", "q2", "q3", "q_done"),
        initial=frozenset({"q0"}),
        transitions=frozenset(
            {("q0", "q1"), ("q1", "q2"), ("q2", "q3"), ("q3", "q_done"), ("q_done", "q_done")}
        ),
        labeling={
            "q0": frozenset({"car"}),
            "q1": frozenset({"wait", "red_light"}),
            "q2": frozenset({"wait", "car"}),
            "q3": frozenset({"turn_left", "green_light"}),
            "q_done": frozenset(),
        },
    )
    assert structure == expected
    dump_lines = [
        "states: " + " ".join(structure.states),
        "initial: " + " ".join(sorted(structure.initial)),
        "transitions:",
    ]
    order = {s: i for i, s in enumerate(structure.states)}
    for src, dst in sorted(structure.transitions, key=lambda t: (order[t[0]], order[t[1]])):
        dump_lines.append(f"  {src} -> {dst}")
    dump_lines.append("labels:")
    for state in structure.states:
        dump_lines.append(f"  {state}: " + " ".join(sorted(structure.labeling[state])))
    assert "\n".join(dump_lines) + "\n" == (DATA / "demo_structure.txt").read_text()
    report(3, "demo plan encodes to the exact five-state chain (golden match)")


def test_criterion_04_conformal_coverage():
    started = time.monotonic()
    rng = np.random.default_rng(4)
    cal_vectors, cal_labels = synthetic_classifier(rng, 1000)
    dist = NonconformityDistribution(1 - cal_vectors[np.arange(1000), cal_labels])
    test_vectors, test_labels = synthetic_classifier(rng, 10_000)
    test_scores = 1 - test_vectors[np.arange(10_000), test_labels]
    coverages = {}
    for eps in (0.1, 0.3):
        threshold = dist.quantile(1 - eps)
        coverage = float(np.mean(test_scores <= threshold))
        assert coverage >= 1 - eps - 0.02, f"eps={eps}: coverage {coverage:.4f}"
        coverages[eps] = coverage
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    report(4, "split-conformal coverage "
              + ", ".join(f"eps={e}: {c:.3f}" for e, c in coverages.items())
              + f" in {elapsed:.1f}s")


def test_criterion_05_perception_score_calibration():
    rng = np.random.default_rng(4)
    cal_vectors, cal_labels = synthetic_classifier(rng, 1000)
    dist = NonconformityDistribution(1 - cal_vectors[np.arange(1000), cal_labels])
    test_vectors, test_labels = synthetic_classifier(rng, 10_000)
    runner_up = np.partition(test_vectors, -2, axis=1)[:, -2]
    scores = np.searchsorted(dist.scores, 1 - runner_up, side="right") / len(dist)
    correct = test_vectors.argmax(axis=1) == test_labels
    populated = []
    for decile in range(10):
        low = decile / 10
        high = low + 0.1
        mask = (scores >= low) & ((scores < high) if decile < 9 else (scores <= 1.0))
        if not mask.any():
            continue
        accuracy = float(correct[mask].mean())
        assert accuracy >= low - 0.05, (
            f"decile [{low:.1f},{high:.1f}): accuracy {accuracy:.3f} < {low - 0.05:.3f}"
        )
        populated.append((low, accuracy, int(mask.sum())))
    assert populated
    report(5, "per-decile accuracy respects the lower-bound semantics: "
              + ", ".join(f"[{lo:.1f}+): {acc:.3f} (n={n})" for lo, acc, n in populated))


def test_criterion_06_gating_reproduction(driving_vocab, gating_specs, decision_dist):
    scenes = load_scenarios(bundled_path("driving_gating_corpus.jsonl"))
    assert len(scenes) == 50
    violations = 0
    executed = 0
    executed_violations = 0
    for scene in scenes:
        record = PlanRecord(
            scene.plan, scene.confidence, scene.observed_objects(scene.observations[0]), scene.task
        )
        assessment = verify_plan(record, gating_specs, driving_vocab)
        assert assessment.encodable
        violates = not assessment.satisfied_all
        violations += violates
        u_d = decision_score(scene.confidence, decision_dist)
        if violates:
            assert u_d is not None and u_d < 0.7
        if u_d is not None and execution_gate(u_d, 0.7):
            executed += 1
            executed_violations += violates
    assert violations == 4
    assert violations / len(scenes) == 0.08
    assert executed > 0
    assert executed_violations == 0
    report(6, f"ungated violation rate {violations}/{len(scenes)} = 8%; "
              f"gated executed-violation rate 0/{executed} = 0%")


def test_criterion_07_active_sensing_contract(
    staircase_dist, sweep_inputs
):
    scenes, dist_p, dist_d, specs, vocab = sweep_inputs
    # accepted observations always clear the threshold
    rng = random.Random(77)
    grid = [i / 10 for i in range(1, 10)]
    accepted = 0
    for _ in range(50):
        observations = [
            observation_with_scores(staircase_dist, [rng.choice(grid)]) for _ in range(4)
        ]
        t_p = rng.choice(grid)
        outcome = active_sense(observations, staircase_dist, t_p, max_attempts=4)
        if outcome.accepted:
            accepted += 1
            assert outcome.score >= t_p
    assert accepted > 0
    # exhaustion is reported when nothing qualifies
    low = [observation_with_scores(staircase_dist, [0.3]) for _ in range(3)]
    outcome = active_sense(low, staircase_dist, 0.9, max_attempts=3)
    assert not outcome.accepted and outcome.attempts == 3 and outcome.best_score == 0.3
    # sweep over the bundled corpus: nondecreasing frequency, table-schema CSV
    thresholds = [0.5, 0.6, 0.7, 0.8, 0.9]
    rows = threshold_sweep(scenes, thresholds, dist_p, dist_d, specs, vocab)
    frequencies = [row.as_frequency for row in rows]
    assert frequencies == sorted(frequencies)
    csv = sweep_to_csv(rows)
    lines = csv.strip().splitlines()
    assert lines[0] == "threshold,accuracy,as_frequency,satisfy_prob"
    assert [line.split(",")[0] for line in lines[1:]] == ["0.5", "0.6", "0.7", "0.8", "0.9"]
    report(7, "sensing contract holds; AS frequency over thresholds: "
              + ", ".join(f"{f:.3f}" for f in frequencies))


def test_criterion_08_refinement_validity(
    driving_vocab, gating_specs, perception_dist, tmp_path
):
    scenes = load_scenarios(bundled_path("refine_images.jsonl"))
    images = [scene.observations[0] for scene in scenes]
    tasks = [
        line.strip()
        for line in bundled_path("task_bank.txt").read_text().splitlines()
        if line.strip()
    ]
    client = ReplayModelClient(bundled_path("replay_fixtures.jsonl"))
    by_id = {image.image_id: image for image in images}

    datasets = []
    for name in ("a.jsonl", "b.jsonl"):
        data, _ = generate_refinement_dataset(
            tasks, images, client, driving_vocab, gating_specs, perception_dist,
            sample_size=8, t_p=0.7, budget=60, seed=7,
        )
        path = tmp_path / name
        save_refinement_dataset(path, data)
        datasets.append(path.read_bytes())
    assert datasets[0] == datasets[1], "generation is not byte-deterministic"

    for datum in data:
        assert datum.u_p >= 0.7
        assert image_uncertainty(by_id[datum.image_id], perception_dist) == datum.u_p
        record = PlanRecord(
            datum.plan, datum.confidence, by_id[datum.image_id].reported_labels(), datum.task
        )
        assessment = verify_plan(record, gating_specs, driving_vocab)
        assert assessment.satisfied_all, f"datum does not re-verify: {datum}"

    with pytest.raises(BudgetExhaustedError) as info:
        generate_refinement_dataset(
            tasks, images, client, driving_vocab, gating_specs, perception_dist,
            sample_size=50, t_p=0.7, budget=50, seed=7,
        )
    assert info.value.partial and len(info.value.partial) < 50
    report(8, f"all {len(data)} refinement data re-verify; generation is "
              "byte-deterministic; budget exhaustion carries partial data")


def test_criterion_09_smv_export_goldens(driving_vocab, driving_specs, demo_structure):
    text = export_smv(demo_structure, list(driving_specs))
    assert text == (DATA / "demo.smv").read_text(), "SMV golden mismatch"
    emitted = [l[len("LTLSPEC "):] for l in text.splitlines() if l.startswith("LTLSPEC ")]
    originals = [formula for _, formula in driving_specs]
    assert [parse_formula(line, driving_vocab) for line in emitted] == originals
    report(9, "SMV export byte-matches the golden file and every LTLSPEC reparses")


def test_criterion_10_qq_identity():
    rng = np.random.default_rng(10)
    for m in range(2, 51):
        sample = rng.random(rng.integers(3, 60)).tolist()
        points = qq_points(sample, sample, m)
        assert len(points) == m
        assert all(x == y for x, y in points)
    report(10, "identical samples land exactly on the diagonal for m in [2, 50]")
