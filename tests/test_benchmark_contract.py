"""The benchmark's timing shims name attributes the program really has.

``perfbench/tracing.py`` replaces module-level names (``fmdp.check_all``,
``interventions.verify_plan``, ``checker.ltl_to_buchi`` ...) with timing
wrappers.  A renamed or removed name would only surface as a crash of the
traced benchmark run; these tests make it fail here instead.
"""
import plancheck
from conftest import load_perfbench
from plancheck import bundled_path
from plancheck.fmdp import SpecificationSet, load_plan_records
from plancheck.logic import Not, Vocabulary, nnf, parse_formula


def test_every_shim_target_resolves():
    tracing = load_perfbench("tracing")
    targets = tracing.program_targets(plancheck) + tracing.oracle_targets(plancheck)
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, _, _ in targets
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []


def test_calibration_crosses_the_traced_layers():
    tracing = load_perfbench("tracing")
    vocab = Vocabulary.load(bundled_path("driving_vocabulary.txt"))
    specs = SpecificationSet.load(bundled_path("driving_gating_specs.txt"), vocab)
    records = load_plan_records(bundled_path("driving_decision_calibration.jsonl"))
    tracer = tracing.Tracer()
    tracer.install(tracing.program_targets(plancheck))
    try:
        _, report = plancheck.fmdp.calibrate_decision(records, specs, vocab)
    finally:
        tracer.uninstall()
    names = [span[tracing.NAME] for span in tracer.spans]
    assert {
        "fmdp.calibrate_decision",
        "fmdp.verify_plan",
        "plan_encoder.encode",
        "plan_encoder.parse_phrases",
        "checker.check_all",
    } <= set(names)
    # The per-layer metrics read these spans: a verify_plan that went round
    # the shimmed names would leave them at zero.
    assert names.count("plan_encoder.encode") == report.total == len(records)
    assert names.count("checker.check_all") == report.total - report.unencodable
    assert plancheck.fmdp.verify_plan.__name__ == "verify_plan"  # shims removed


def test_traced_check_records_translation_span_and_state_count():
    # Only the traced benchmark pass reads ``automaton.states`` through the
    # shim, so a translator that broke it would fail that pass alone.  The
    # formula is one no other test translates, so the translation is cold.
    tracing = load_perfbench("tracing")
    vocab = Vocabulary.load(bundled_path("driving_vocabulary.txt"))
    formula = parse_formula("G (car & wait -> (stop_sign U X turn_right))", vocab)
    structure = plancheck.plan_encoder.encode("1. Wait for the car.", vocab, {"car"})
    tracer = tracing.Tracer()
    tracer.install(tracing.program_targets(plancheck))
    try:
        plancheck.checker.check(structure, formula)
    finally:
        tracer.uninstall()
    names = [span[tracing.NAME] for span in tracer.spans]
    assert names == ["checker.check", "checker.ltl_to_buchi"]
    automaton = plancheck.checker.ltl_to_buchi(nnf(Not(formula)))
    assert tracer.automaton_states == [len(automaton.states)] and len(automaton.states) > 1
