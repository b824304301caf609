"""Verification-driven decision calibration, scoring, and gates."""
import random
import tracemalloc

import pytest

from conftest import DEMO_PLAN, load_perfbench
from plancheck import bundled_path
from plancheck.conformal import NonconformityDistribution
from plancheck.fmdp import (
    CalibrationReport,
    EmptyAfterFilterError,
    EmptySpecificationSetError,
    PlanRecord,
    SpecificationSet,
    calibrate_decision,
    decision_score,
    execution_gate,
    load_plan_records,
    verify_plan,
)


def spec_set(vocab, *pairs):
    from plancheck.logic import parse_formula

    return SpecificationSet((name, parse_formula(text, vocab)) for name, text in pairs)


@pytest.fixture
def two_specs(driving_vocab):
    return spec_set(
        driving_vocab,
        ("phi1", "G (red_light -> !move_forward)"),
        ("phi2", "G (pedestrian -> wait)"),
    )


class TestVerifyPlan:
    def test_demo_plan_satisfies_both(self, driving_vocab, two_specs):
        record = PlanRecord(DEMO_PLAN, 0.9, frozenset({"car", "truck"}))
        assessment = verify_plan(record, two_specs, driving_vocab)
        assert assessment.encodable and assessment.satisfied_all
        assert assessment.nonconformity == pytest.approx(0.1)

    def test_observed_pedestrian_without_wait_fails(self, driving_vocab, two_specs):
        record = PlanRecord("1. Move forward.", 0.8, frozenset({"pedestrian"}))
        assessment = verify_plan(record, two_specs, driving_vocab)
        assert not assessment.satisfied_all
        outcomes = dict((name, v.holds) for name, v in assessment.verdicts)
        assert outcomes == {"phi1": True, "phi2": False}

    def test_empty_spec_set_rejected(self, driving_vocab):
        record = PlanRecord("1. Wait.", 0.9, frozenset())
        with pytest.raises(EmptySpecificationSetError):
            verify_plan(record, SpecificationSet([]), driving_vocab)

    def test_unencodable_plan_is_flagged_not_raised(self, driving_vocab, two_specs):
        record = PlanRecord("???", 0.9, frozenset())
        assessment = verify_plan(record, two_specs, driving_vocab)
        assert not assessment.encodable
        assert not assessment.satisfied_all
        assert assessment.verdicts == ()
        assert assessment.error

    def test_confidence_validated(self):
        with pytest.raises(ValueError):
            PlanRecord("1. Wait.", 1.2, frozenset())


class TestCalibrateDecision:
    def test_scores_are_one_minus_confidence(self, driving_vocab, two_specs):
        records = [
            PlanRecord("1. Wait.", 0.9, frozenset()),
            PlanRecord("1. Wait.\n2. Move forward.", 0.8, frozenset()),
        ]
        dist, report = calibrate_decision(records, two_specs, driving_vocab)
        assert list(dist.scores) == pytest.approx([0.1, 0.2])
        assert report == CalibrationReport(total=2, included=2, unencodable=0)

    def test_violating_record_excluded(self, driving_vocab, two_specs):
        records = [
            PlanRecord("1. Wait.", 0.9, frozenset()),
            PlanRecord("1. Move forward.", 0.8, frozenset({"pedestrian"})),
        ]
        dist, report = calibrate_decision(records, two_specs, driving_vocab)
        assert list(dist.scores) == pytest.approx([0.1])
        assert report.included == 1 and report.excluded == 1

    def test_any_versus_all(self, driving_vocab, two_specs):
        # satisfies phi1 but not phi2
        partial = PlanRecord("1. Move forward.", 0.6, frozenset({"pedestrian"}))
        anchor = PlanRecord("1. Wait.", 0.9, frozenset())
        dist_any, _ = calibrate_decision(
            [anchor, partial], two_specs, driving_vocab, filter_mode="any"
        )
        assert len(dist_any) == 2
        dist_all, _ = calibrate_decision([anchor, partial], two_specs, driving_vocab)
        assert len(dist_all) == 1

    def test_empty_after_filter(self, driving_vocab, two_specs):
        records = [PlanRecord("1. Move forward.", 0.8, frozenset({"pedestrian"}))]
        with pytest.raises(EmptyAfterFilterError):
            calibrate_decision(records, two_specs, driving_vocab)

    def test_order_independent(self, driving_vocab, two_specs):
        rng = random.Random(5)
        records = [
            PlanRecord("1. Wait.", rng.uniform(0.5, 1.0), frozenset()) for _ in range(12)
        ]
        shuffled = records[:]
        rng.shuffle(shuffled)
        first, _ = calibrate_decision(records, two_specs, driving_vocab)
        second, _ = calibrate_decision(shuffled, two_specs, driving_vocab)
        assert first == second

    def test_unencodable_counted_and_excluded(self, driving_vocab, two_specs):
        records = [
            PlanRecord("1. Wait.", 0.9, frozenset()),
            PlanRecord("!!!", 0.9, frozenset()),
        ]
        dist, report = calibrate_decision(records, two_specs, driving_vocab)
        assert len(dist) == 1
        assert report.unencodable == 1

    def test_memory_does_not_grow_with_the_record_count(self, driving_vocab, gating_specs):
        # Records stream in one at a time; only the passers' scores are kept.
        rows = load_perfbench("gen").plan_records(1, 11_000)

        def peak(batch):
            records = (PlanRecord(r["plan"], r["confidence"], frozenset(r["objects"])) for r in batch)
            tracemalloc.start()
            try:
                _, report = calibrate_decision(records, gating_specs, driving_vocab)
                assert report.total == len(batch)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(rows[:200])  # fills the encoder's and checker's caches
        assert peak(rows[1000:]) - peak(rows[:1000]) < 512 * 1024

    def test_bad_filter_mode(self, driving_vocab, two_specs):
        with pytest.raises(ValueError):
            calibrate_decision(
                [PlanRecord("1. Wait.", 0.9, frozenset())],
                two_specs,
                driving_vocab,
                filter_mode="some",
            )


class TestDecisionScore:
    def test_below_gate_rejected(self):
        assert decision_score(0.4, NonconformityDistribution([0.1])) is None

    def test_scored_with_ecdf(self):
        d = NonconformityDistribution([0.1, 0.2, 0.3, 0.4])
        assert decision_score(0.9, d) == 1.0

    def test_boundary_is_scored(self):
        d = NonconformityDistribution([0.1, 0.2, 0.3, 0.4])
        assert decision_score(0.5, d) == d.ecdf(0.5)

    def test_monotone_in_confidence(self):
        d = NonconformityDistribution([0.1, 0.35, 0.6, 0.85])
        values = [decision_score(c, d) for c in (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_complement_mode(self):
        d = NonconformityDistribution([0.125, 0.25, 0.375, 0.5])
        # 1 - 0.75 is exactly 0.25 in binary floating point
        assert decision_score(0.75, d, mode="complement") == 1.0 - d.ecdf(0.25)
        assert decision_score(0.75, d, mode="complement") == 0.5

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            decision_score(1.2, NonconformityDistribution([0.1]))

    def test_never_invokes_the_model_checker(self, monkeypatch):
        import plancheck.checker as checker_module

        def boom(*args, **kwargs):
            raise AssertionError("online scoring must not verify")

        monkeypatch.setattr(checker_module, "check", boom)
        monkeypatch.setattr(checker_module, "check_all", boom)
        d = NonconformityDistribution([0.1, 0.5, 0.9])
        assert decision_score(0.8, d) == d.ecdf(0.8)


class TestExecutionGate:
    def test_threshold_inclusive(self):
        assert execution_gate(0.7, 0.7)

    def test_just_below_abstains(self):
        assert not execution_gate(0.69, 0.7)

    def test_zero_threshold_always_executes(self):
        for u in (0.0, 0.3, 1.0):
            assert execution_gate(u, 0.0)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            execution_gate(1.2, 0.5)
        with pytest.raises(ValueError):
            execution_gate(0.5, -0.1)


class TestPlanRecordFile:
    def test_bundled_calibration_records(self):
        records = load_plan_records(bundled_path("driving_decision_calibration.jsonl"))
        assert len(records) == 20
        assert all(0 <= r.confidence <= 1 for r in records)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text('{"task": "t", "plan": "1. Wait."}\n')
        with pytest.raises(ValueError, match="confidence"):
            load_plan_records(path)

    def test_round_trip_fields(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text(
            '{"task": "turn", "plan": "1. Wait.", "confidence": 0.75, "objects": ["car"]}\n'
        )
        record = load_plan_records(path)[0]
        assert record == PlanRecord("1. Wait.", 0.75, frozenset({"car"}), "turn")


class TestSpecificationSet:
    def test_load_and_iterate(self, driving_vocab):
        specs = SpecificationSet.load(bundled_path("driving_specs.txt"), driving_vocab)
        assert len(specs) == 10
        assert specs.names[0] == "phi1"

    def test_text_listing(self, driving_vocab, two_specs):
        text = two_specs.text()
        assert "phi1: G (red_light -> !move_forward)" in text

    def test_duplicate_names(self, driving_vocab):
        from plancheck.logic import parse_formula

        pair = ("a", parse_formula("wait", driving_vocab))
        with pytest.raises(ValueError):
            SpecificationSet([pair, pair])
