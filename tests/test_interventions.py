"""Active sensing, refinement data generation, DPO pairs, and threshold sweeps."""
import dataclasses
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import detection_with_score, observation_with_scores
from plancheck import bundled_path
from plancheck.clients import ReplayModelClient
from plancheck.conformal import perception_score, predict
from plancheck.fmdp import PlanRecord, decision_score, verify_plan
from plancheck.interventions import (
    BudgetExhaustedError,
    Detection,
    DpoPair,
    NoPairsError,
    Observation,
    ReplayObservationProvider,
    Scenario,
    SweepRow,
    active_sense,
    dpo_pairs,
    generate_refinement_dataset,
    image_uncertainty,
    load_scenarios,
    save_dpo_pairs,
    save_refinement_dataset,
    sweep_to_csv,
    threshold_sweep,
)


class TestImageUncertainty:
    def test_single_detection_equals_perception_score(self, staircase_dist):
        det = detection_with_score(staircase_dist, 0.8)
        obs = Observation("img", (det,))
        expected = perception_score(det.probs, staircase_dist)
        assert image_uncertainty(obs, staircase_dist) == expected

    def test_min_aggregation(self, staircase_dist):
        obs = observation_with_scores(staircase_dist, [0.9, 0.7])
        assert image_uncertainty(obs, staircase_dist) == 0.7

    def test_adding_detection_never_raises_score(self, staircase_dist):
        smaller = observation_with_scores(staircase_dist, [0.9, 0.8])
        larger = observation_with_scores(staircase_dist, [0.9, 0.8, 0.6])
        assert image_uncertainty(larger, staircase_dist) <= image_uncertainty(
            smaller, staircase_dist
        )

    def test_empty_detections_rejected(self):
        with pytest.raises(ValueError):
            Observation("img", ())


class TestActiveSense:
    def test_accepts_first_passing_observation(self, staircase_dist):
        observations = [
            observation_with_scores(staircase_dist, [s], image_id=f"img{i}")
            for i, s in enumerate([0.6, 0.6, 0.8])
        ]
        # staircase steps are tenths; 0.6, 0.6, 0.8 straddle a 0.7 threshold
        outcome = active_sense(
            ReplayObservationProvider(observations), staircase_dist, 0.7, max_attempts=10
        )
        assert outcome.accepted and outcome.attempts == 3
        assert outcome.observation.image_id == "img2"
        assert outcome.score >= 0.7

    def test_immediate_accept(self, staircase_dist):
        observations = [observation_with_scores(staircase_dist, [0.9])]
        outcome = active_sense(
            ReplayObservationProvider(observations), staircase_dist, 0.7, max_attempts=5
        )
        assert outcome.accepted and outcome.attempts == 1

    def test_exhaustion_reports_best_seen(self, staircase_dist):
        observations = [
            observation_with_scores(staircase_dist, [s]) for s in (0.3, 0.6, 0.5, 0.4, 0.2, 0.6)
        ]
        outcome = active_sense(
            ReplayObservationProvider(observations), staircase_dist, 0.9, max_attempts=5
        )
        assert not outcome.accepted
        assert outcome.attempts == 5
        assert outcome.best_score == 0.6

    def test_provider_exhaustion(self, staircase_dist):
        observations = [observation_with_scores(staircase_dist, [0.5])]
        outcome = active_sense(
            ReplayObservationProvider(observations), staircase_dist, 0.9, max_attempts=5
        )
        assert not outcome.accepted and outcome.attempts == 1

    def test_threshold_validation(self, staircase_dist):
        provider = ReplayObservationProvider([])
        with pytest.raises(ValueError):
            active_sense(provider, staircase_dist, 1.2, max_attempts=1)
        with pytest.raises(ValueError):
            active_sense(provider, staircase_dist, 0.5, max_attempts=0)

    def test_provider_errors_carry_attempt_context(self, staircase_dist):
        from plancheck.interventions import ObservationProviderError

        class FlakyProvider:
            def __init__(self, observations):
                self._inner = ReplayObservationProvider(observations)
                self.pulls = 0

            def next_observation(self):
                self.pulls += 1
                if self.pulls == 2:
                    raise OSError("camera offline")
                return self._inner.next_observation()

        provider = FlakyProvider([observation_with_scores(staircase_dist, [0.3])] * 3)
        with pytest.raises(ObservationProviderError) as info:
            active_sense(provider, staircase_dist, 0.9, max_attempts=5)
        assert info.value.attempt == 2
        assert "attempt 2" in str(info.value)

    def test_accepted_scores_never_below_threshold(self, staircase_dist):
        rng = random.Random(13)
        grid = [i / 10 for i in range(1, 10)]
        for _ in range(30):
            observations = [
                observation_with_scores(staircase_dist, [rng.choice(grid)]) for _ in range(5)
            ]
            t_p = rng.choice(grid)
            outcome = active_sense(
                ReplayObservationProvider(observations), staircase_dist, t_p, max_attempts=5
            )
            if outcome.accepted:
                assert outcome.score >= t_p


class TestRefinementGeneration:
    @pytest.fixture
    def refine_setup(self, driving_vocab, gating_specs, perception_dist):
        scenes = load_scenarios(bundled_path("refine_images.jsonl"))
        images = [scene.observations[0] for scene in scenes]
        tasks = [
            line.strip()
            for line in bundled_path("task_bank.txt").read_text().splitlines()
            if line.strip()
        ]
        client = ReplayModelClient(bundled_path("replay_fixtures.jsonl"))
        return images, tasks, client, driving_vocab, gating_specs, perception_dist

    def test_all_pass_fixture_collects_exactly_n(self, refine_setup, staircase_dist):
        images, tasks, client, vocab, specs, _ = refine_setup
        passing = [img for img in images if image_uncertainty(img, _dist(refine_setup)) >= 0.7]
        good_tasks = [t for t in tasks if t != tasks[2]]
        data, report = generate_refinement_dataset(
            good_tasks, passing, client, vocab, specs, _dist(refine_setup),
            sample_size=10, t_p=0.7, budget=50, seed=3,
        )
        assert len(data) == 10
        assert report.skipped_low_perception == 0
        assert report.collected == 10

    def test_skip_count_matches_sampling_sequence(self, refine_setup):
        images, tasks, client, vocab, specs, dist = refine_setup
        seed, budget, size = 7, 60, 8
        data, report = generate_refinement_dataset(
            tasks, images, client, vocab, specs, dist,
            sample_size=size, t_p=0.7, budget=budget, seed=seed,
        )
        # independent replay of the sampling stream
        rng = random.Random(seed)
        expected_skips = 0
        collected = 0
        iterations = 0
        while iterations < budget and collected < size:
            iterations += 1
            obs = images[rng.randrange(len(images))]
            task = tasks[rng.randrange(len(tasks))]
            if image_uncertainty(obs, dist) < 0.7:
                expected_skips += 1
                continue
            record = PlanRecord("1. Wait.", 0.9, obs.reported_labels(), task)
            # membership in the dataset is decided by verification of the
            # fixture plan; replicate via the fixture table
            from plancheck.clients import query_plan, query_satisfaction

            plan = query_plan(client, obs.image_id, task)
            confidence = query_satisfaction(client, plan, specs.text(), image=obs.image_id, task=task)
            assessment = verify_plan(
                PlanRecord(plan, confidence, obs.reported_labels(), task), specs, vocab
            )
            if assessment.encodable and assessment.satisfied_all:
                collected += 1
        assert report.skipped_low_perception == expected_skips
        assert report.iterations == iterations

    def test_violating_fixture_never_emitted(self, refine_setup):
        images, tasks, client, vocab, specs, dist = refine_setup
        data, _ = generate_refinement_dataset(
            tasks, images, client, vocab, specs, dist,
            sample_size=8, t_p=0.7, budget=60, seed=7,
        )
        assert not any(d.image_id == "img_r2" and d.task == tasks[2] for d in data)

    def test_every_datum_reverifies(self, refine_setup):
        images, tasks, client, vocab, specs, dist = refine_setup
        data, _ = generate_refinement_dataset(
            tasks, images, client, vocab, specs, dist,
            sample_size=8, t_p=0.7, budget=60, seed=7,
        )
        by_id = {img.image_id: img for img in images}
        for datum in data:
            assert datum.u_p >= 0.7
            record = PlanRecord(
                datum.plan, datum.confidence, by_id[datum.image_id].reported_labels(), datum.task
            )
            assessment = verify_plan(record, specs, vocab)
            assert assessment.satisfied_all

    def test_byte_deterministic(self, refine_setup, tmp_path):
        images, tasks, client, vocab, specs, dist = refine_setup
        outputs = []
        for name in ("first.jsonl", "second.jsonl"):
            data, _ = generate_refinement_dataset(
                tasks, images, client, vocab, specs, dist,
                sample_size=8, t_p=0.7, budget=60, seed=7,
            )
            path = tmp_path / name
            save_refinement_dataset(path, data)
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]

    def test_transport_swap_changes_nothing(self, refine_setup, tmp_path):
        # replay and HTTP clients over the same fixtures produce identical datasets
        from plancheck.clients import HttpModelClient, StubModelServer, load_replay_fixtures

        images, tasks, _, vocab, specs, dist = refine_setup
        fixtures = load_replay_fixtures(bundled_path("replay_fixtures.jsonl"))
        outputs = []
        with StubModelServer(fixtures) as server:
            clients = [
                ReplayModelClient(fixtures),
                HttpModelClient(server.url, timeout=5.0, backoff=0.01),
            ]
            for i, client in enumerate(clients):
                data, _ = generate_refinement_dataset(
                    tasks, images, client, vocab, specs, dist,
                    sample_size=6, t_p=0.7, budget=50, seed=11,
                )
                path = tmp_path / f"swap{i}.jsonl"
                save_refinement_dataset(path, data)
                outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]

    def test_budget_exhaustion_carries_partial(self, refine_setup):
        images, tasks, client, vocab, specs, dist = refine_setup
        with pytest.raises(BudgetExhaustedError) as info:
            generate_refinement_dataset(
                tasks, images, client, vocab, specs, dist,
                sample_size=30, t_p=0.7, budget=30, seed=7,
            )
        assert 0 < len(info.value.partial) < 30
        assert info.value.report.iterations == 30

    def test_input_validation(self, refine_setup):
        images, tasks, client, vocab, specs, dist = refine_setup
        for bank, image_set in (([], images), (tasks, [])):
            with pytest.raises(ValueError, match="task bank and image set must be nonempty"):
                generate_refinement_dataset(
                    bank, image_set, client, vocab, specs, dist,
                    sample_size=1, t_p=0.7, budget=5, seed=0,
                )
        with pytest.raises(ValueError):
            generate_refinement_dataset(
                tasks, images, client, vocab, specs, dist,
                sample_size=10, t_p=0.7, budget=5, seed=0,
            )


def _dist(refine_setup):
    return refine_setup[5]


class TestDpoPairs:
    def _assessment(self, vocab, specs, plan, objects=frozenset()):
        return verify_plan(PlanRecord(plan, 0.9, frozenset(objects)), specs, vocab)

    def test_one_pair(self, driving_vocab, gating_specs):
        good = self._assessment(driving_vocab, gating_specs, "1. Wait.")
        bad = self._assessment(driving_vocab, gating_specs, "1. Move forward at the red light.")
        pairs = dpo_pairs(
            [("img", "go", "1. Wait.", good), ("img", "go", "1. Move forward at the red light.", bad)]
        )
        assert pairs == [
            DpoPair("img", "go", "1. Wait.", "1. Move forward at the red light.")
        ]

    def test_cross_product(self, driving_vocab, gating_specs):
        positives = ["1. Wait.", "1. Turn right."]
        negatives = [
            "1. Move forward at the red light.",
            "1. Turn left at the red light.",
            "1. Watch the pedestrian.\n2. Move forward.",
        ]
        assessed = [
            ("img", "go", plan, self._assessment(driving_vocab, gating_specs, plan))
            for plan in positives + negatives
        ]
        pairs = dpo_pairs(assessed)
        assert len(pairs) == 6
        assert {p.chosen for p in pairs} == set(positives)
        assert {p.rejected for p in pairs} == set(negatives)

    def test_positives_only_raises(self, driving_vocab, gating_specs):
        good = self._assessment(driving_vocab, gating_specs, "1. Wait.")
        with pytest.raises(NoPairsError):
            dpo_pairs([("img", "go", "1. Wait.", good)])

    def test_pairs_respect_keys(self, driving_vocab, gating_specs):
        good = self._assessment(driving_vocab, gating_specs, "1. Wait.")
        bad = self._assessment(driving_vocab, gating_specs, "1. Move forward at the red light.")
        with pytest.raises(NoPairsError):
            dpo_pairs(
                [
                    ("img_a", "go", "1. Wait.", good),
                    ("img_b", "go", "1. Move forward at the red light.", bad),
                ]
            )

    def test_save_format(self, tmp_path, driving_vocab, gating_specs):
        good = self._assessment(driving_vocab, gating_specs, "1. Wait.")
        bad = self._assessment(driving_vocab, gating_specs, "1. Move forward at the red light.")
        pairs = dpo_pairs(
            [("img", "go", "1. Wait.", good), ("img", "go", "1. Move forward at the red light.", bad)]
        )
        path = tmp_path / "pairs.jsonl"
        save_dpo_pairs(path, pairs)
        entry = json.loads(path.read_text().splitlines()[0])
        assert set(entry) == {"image_id", "task", "chosen", "rejected"}


class TestThresholdSweep:
    def test_zero_threshold_never_reobserves(self, sweep_inputs):
        scenes, dist_p, dist_d, specs, vocab = sweep_inputs
        rows = threshold_sweep(scenes, [0.0], dist_p, dist_d, specs, vocab)
        assert rows[0].as_frequency == 0.0

    def test_as_frequency_nondecreasing(self, sweep_inputs):
        scenes, dist_p, dist_d, specs, vocab = sweep_inputs
        rows = threshold_sweep(scenes, [0.5, 0.6, 0.7, 0.8, 0.9], dist_p, dist_d, specs, vocab)
        freqs = [r.as_frequency for r in rows]
        assert freqs == sorted(freqs)

    def test_csv_schema(self, sweep_inputs):
        scenes, dist_p, dist_d, specs, vocab = sweep_inputs
        rows = threshold_sweep(scenes, [0.5, 0.6, 0.7, 0.8, 0.9], dist_p, dist_d, specs, vocab)
        csv = sweep_to_csv(rows)
        lines = csv.strip().splitlines()
        assert lines[0] == "threshold,accuracy,as_frequency,satisfy_prob"
        assert len(lines) == 6
        assert lines[1].startswith("0.5,")
        assert lines[5].startswith("0.9,")

    def test_verifies_each_plan_once_per_call(self, sweep_inputs, monkeypatch):
        import plancheck.interventions as interventions

        scenes, dist_p, dist_d, specs, vocab = sweep_inputs
        thresholds = [0.5, 0.6, 0.7, 0.8, 0.9]
        verified = []
        original = interventions.verify_plan

        def counting(record, specs, vocab):
            verified.append((record.plan, record.observed))
            return original(record, specs, vocab)

        monkeypatch.setattr(interventions, "verify_plan", counting)
        rows = threshold_sweep(scenes, thresholds, dist_p, dist_d, specs, vocab)
        calls = len(verified)
        assert calls > 0
        assert len(set(verified)) == calls
        # One threshold per call verifies every executed plan again.
        separate = [threshold_sweep(scenes, [t], dist_p, dist_d, specs, vocab)[0] for t in thresholds]
        assert len(verified) - calls > calls
        assert sweep_to_csv(rows) == sweep_to_csv(separate)

    def test_same_plan_verified_per_observed_objects(self, staircase_dist, driving_vocab, gating_specs):
        # One plan, two object sets: it passes without a pedestrian and
        # fails G (pedestrian -> wait) with one.
        observation = observation_with_scores(staircase_dist, [1.0])
        scenes = [
            Scenario(f"s{i}", (observation,), "1. Move forward.", 0.95, objects=objects)
            for i, objects in enumerate([(), ("pedestrian",), ()])
        ]
        rows = threshold_sweep(
            scenes, [0.5, 0.9], staircase_dist, staircase_dist, gating_specs, driving_vocab
        )
        assert [row.satisfy_prob for row in rows] == [2 / 3, 2 / 3]

    def test_empty_corpus_rejected(self, sweep_inputs):
        _, dist_p, dist_d, specs, vocab = sweep_inputs
        with pytest.raises(ValueError):
            threshold_sweep([], [0.5], dist_p, dist_d, specs, vocab)


def reference_sweep(scenes, thresholds, dist_p, dist_d, specs, vocab):
    """The sweep as one active_sense run and one verification per scene per threshold."""
    rows = []
    for t in thresholds:
        accuracies, extra, executed_ok = [], [], []
        for scene in scenes:
            outcome = active_sense(
                ReplayObservationProvider(scene.observations), dist_p, t,
                max_attempts=len(scene.observations),
            )
            settled = outcome.observation or scene.observations[outcome.attempts - 1]
            scored = [d for d in settled.detections if d.true_label is not None]
            correct = sum(1 for d in scored if predict(d.probs) == d.true_label)
            accuracies.append(correct / len(scored) if scored else 0.0)
            extra.append(outcome.attempts - 1)
            if scene.plan is None or scene.confidence is None:
                continue
            u_d = decision_score(scene.confidence, dist_d)
            if u_d is None or u_d < t:
                continue
            observed = scene.observed_objects(settled)
            record = PlanRecord(scene.plan, scene.confidence, observed, scene.task)
            executed_ok.append(1.0 if verify_plan(record, specs, vocab).satisfied_all else 0.0)
        rows.append(
            SweepRow(
                threshold=float(t),
                accuracy=sum(accuracies) / len(accuracies),
                as_frequency=sum(extra) / len(extra),
                satisfy_prob=sum(executed_ok) / len(executed_ok) if executed_ok else float("nan"),
            )
        )
    return rows


STAIRCASE = [k / 10 for k in range(11)]
PLANS = (
    "1. Wait.",
    "1. Move forward.",
    "1. Move forward at the red light.",
    "1. Watch the pedestrian.\n2. Move forward.",
)


@st.composite
def sweep_corpora(draw, dist):
    """1-5 scenes of 1-4 observations with 1-2 detections each, with or without a plan."""
    corpus = []
    for i in range(draw(st.integers(1, 5))):
        observations = []
        for j in range(draw(st.integers(1, 4))):
            detections = tuple(
                dataclasses.replace(
                    detection_with_score(dist, draw(st.sampled_from(STAIRCASE))),
                    true_label=draw(st.sampled_from((None, 0, 1))),
                )
                for _ in range(draw(st.integers(1, 2)))
            )
            observations.append(Observation(f"s{i}/{j}", detections))
        plan = draw(st.none() | st.sampled_from(PLANS))
        confidence = draw(st.sampled_from((0.3, 0.5, 0.7, 0.95, 1.0)))
        objects = draw(st.none() | st.sampled_from(((), ("pedestrian",))))
        corpus.append(Scenario(f"s{i}", tuple(observations), plan, confidence, objects=objects))
    return corpus


thresholds_with_ends = st.lists(
    st.sampled_from(STAIRCASE) | st.floats(0.0, 1.0), max_size=6
).flatmap(lambda ts: st.permutations(ts + [0.0, 1.0]))


class TestSweepEquivalence:
    def test_bundled_corpus_matches_reference(self, sweep_inputs):
        scenes, dist_p, dist_d, specs, vocab = sweep_inputs
        thresholds = [round(0.05 * k, 2) for k in range(21)] + [0.73, 0.0, 1.0, 0.5]
        rows = threshold_sweep(scenes, thresholds, dist_p, dist_d, specs, vocab)
        expected = reference_sweep(scenes, thresholds, dist_p, dist_d, specs, vocab)
        assert [repr(r) for r in rows] == [repr(r) for r in expected]

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_generated_corpus_matches_reference(
        self, data, staircase_dist, driving_vocab, gating_specs
    ):
        corpus = data.draw(sweep_corpora(staircase_dist))
        thresholds = data.draw(thresholds_with_ends)
        args = (corpus, thresholds, staircase_dist, staircase_dist, gating_specs, driving_vocab)
        rows = threshold_sweep(*args)
        expected = reference_sweep(*args)
        assert [repr(r) for r in rows] == [repr(r) for r in expected]

    def test_scores_each_reached_detection_once(self, sweep_inputs, monkeypatch):
        import plancheck.interventions as interventions

        scenes, dist_p, dist_d, specs, vocab = sweep_inputs
        thresholds = [round(0.05 * k, 2) for k in range(21)]

        def pulled(scene, t):
            outcome = active_sense(
                ReplayObservationProvider(scene.observations), dist_p, t,
                max_attempts=len(scene.observations),
            )
            return sum(len(obs.detections) for obs in scene.observations[: outcome.attempts])

        # Settling moves forward as the threshold rises, so the highest one
        # reaches every observation that any threshold reaches.
        reached = sum(pulled(scene, max(thresholds)) for scene in scenes)
        per_threshold = sum(pulled(scene, t) for scene in scenes for t in thresholds)
        with_plan = sum(1 for s in scenes if s.plan is not None and s.confidence is not None)
        calls = {"perception": [], "decision": 0}
        original_p, original_d = interventions.perception_score, interventions.decision_score

        def counting_p(probs, dist):
            calls["perception"].append(id(probs))
            return original_p(probs, dist)

        def counting_d(*args, **kwargs):
            calls["decision"] += 1
            return original_d(*args, **kwargs)

        monkeypatch.setattr(interventions, "perception_score", counting_p)
        monkeypatch.setattr(interventions, "decision_score", counting_d)
        threshold_sweep(scenes, thresholds, dist_p, dist_d, specs, vocab)
        assert len(calls["perception"]) == len(set(calls["perception"])) == reached
        assert reached < per_threshold
        assert calls["decision"] == with_plan

    def test_observation_after_universal_pass_is_never_scored(
        self, staircase_dist, driving_vocab, gating_specs
    ):
        passing = observation_with_scores(staircase_dist, [1.0])
        invalid = Observation("bad", (Detection("car", (0.9, 0.9), true_label=0),))
        with pytest.raises(ValueError):
            image_uncertainty(invalid, staircase_dist)
        scene = Scenario("s", (passing, invalid), "1. Wait.", 0.95)
        rows = threshold_sweep(
            [scene], [0.0, 0.5, 1.0], staircase_dist, staircase_dist, gating_specs, driving_vocab
        )
        assert [(r.as_frequency, r.satisfy_prob) for r in rows] == [(0.0, 1.0)] * 3

    def test_accuracy_breaks_ties_like_predict(self, staircase_dist, driving_vocab, gating_specs):
        probs = (0.25, 0.375, 0.375)
        assert predict(probs) == 1
        detections = tuple(Detection("car", probs, true_label=label) for label in (1, 2, 1, 0))
        scene = Scenario("s", (Observation("tie", detections),))
        rows = threshold_sweep(
            [scene], [0.0, 1.0], staircase_dist, staircase_dist, gating_specs, driving_vocab
        )
        assert [r.accuracy for r in rows] == [0.5, 0.5]


class TestScenarioFiles:
    def test_objects_override(self, tmp_path):
        path = tmp_path / "scenes.jsonl"
        path.write_text(
            json.dumps(
                {
                    "scene_id": "s1",
                    "observations": [
                        {"detections": [{"label_hypothesis": "car", "probs": [0.9, 0.1]}]}
                    ],
                    "objects": ["pedestrian"],
                }
            )
            + "\n"
        )
        scene = load_scenarios(path)[0]
        assert scene.observations[0].image_id == "s1/1"
        assert scene.observed_objects(scene.observations[0]) == frozenset({"pedestrian"})

    def test_reported_labels_default(self, tmp_path):
        path = tmp_path / "scenes.jsonl"
        path.write_text(
            json.dumps(
                {
                    "scene_id": "s1",
                    "observations": [
                        {"detections": [{"label_hypothesis": "car", "probs": [0.9, 0.1]}]}
                    ],
                }
            )
            + "\n"
        )
        scene = load_scenarios(path)[0]
        assert scene.observed_objects(scene.observations[0]) == frozenset({"car"})
