"""Phrase splitting, lexicon matching, negation scope, and chain encoding."""
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DEMO_PLAN, load_perfbench
from plancheck.fmdp import PlanRecord, verify_plan
from plancheck.logic import AtomicProposition, Vocabulary, eval_trace, single_path
from plancheck.plan_encoder import (
    DEFAULT_NEGATION_WINDOW,
    EmptyPlanError,
    NoPhrasesError,
    encode,
    parse_phrases,
)

# Surfaces nested inside one another, so the longest match often has a
# shorter one to fall back to.
NESTED_VOCAB = Vocabulary(
    [
        AtomicProposition("move", "move"),
        AtomicProposition("move_ahead", "move ahead"),
        AtomicProposition("move_straight_ahead", "move straight ahead"),
        AtomicProposition("straight", "straight"),
        AtomicProposition("ahead", "ahead"),
        AtomicProposition("stop", "stop", ("halt",)),
        AtomicProposition("stop_sign", "stop sign", ("big stop sign", "stop signs")),
        AtomicProposition("sign", "sign"),
    ]
)
NOISE = ("the", "then", "at", "for", "big", "now", "here")
CUES = ("no", "not", "never", "without", "don't", "isn't")
SEPARATORS = (",", ";", ":")


def reference_matches(text, vocab, negation_window):
    """Brute force: at each token try every surface, longest first."""
    tokens = [
        (clause, word)
        for clause, part in enumerate(re.split(r"[,;:]", text.lower()))
        for word in re.findall(r"[a-z0-9']+", part)
    ]
    surfaces = sorted(vocab.surface_table.items(), key=lambda item: -len(item[0]))
    matched = []
    pos = 0
    while pos < len(tokens):
        clause = tokens[pos][0]
        for key, pid in surfaces:
            span = tokens[pos : pos + len(key)]
            if (
                len(span) == len(key)
                and all(c == clause for c, _ in span)
                and tuple(w.replace("'", "") for _, w in span) == key
            ):
                before = tokens[max(0, pos - negation_window) : pos]
                negated = any(
                    c == clause and (w in ("no", "not", "never", "without") or w.endswith("n't"))
                    for c, w in before
                )
                if not negated and pid not in matched:
                    matched.append(pid)
                pos += len(key)
                break
        else:
            pos += 1
    return tuple(matched)


def _plan_pieces(vocab):
    surface_words = sorted({word for key in vocab.surface_table for word in key})
    word = st.sampled_from(surface_words + list(NOISE) + list(CUES))
    piece = st.tuples(word, st.sampled_from(("",) * 4 + SEPARATORS))
    return st.lists(piece, min_size=1, max_size=14)


class TestParsePhrases:
    def test_demo_plan_matches(self, driving_vocab):
        phrases = parse_phrases(DEMO_PLAN, driving_vocab)
        assert [p.matched for p in phrases] == [
            ("wait", "red_light"),
            ("wait", "car"),
            ("turn_left", "green_light"),
        ]
        assert [p.index for p in phrases] == [1, 2, 3]

    def test_negation_suppresses_nearby_match_only(self, driving_vocab):
        phrases = parse_phrases("1. There is no stop sign, move forward.", driving_vocab)
        assert [p.matched for p in phrases] == [("move_forward",)]

    def test_negation_cue_contraction(self, driving_vocab):
        phrases = parse_phrases("1. Don't wait, turn right.", driving_vocab)
        assert phrases[0].matched == ("turn_right",)

    def test_negation_window_within_clause(self, driving_vocab):
        # the cue is 4 tokens before the match: outside the default window
        phrases = parse_phrases("1. There is no reason you should wait here.", driving_vocab)
        assert phrases[0].matched == ("wait",)

    def test_empty_plan(self, driving_vocab):
        with pytest.raises(EmptyPlanError):
            parse_phrases("   \n ", driving_vocab)

    def test_no_phrases(self, driving_vocab):
        with pytest.raises(NoPhrasesError):
            parse_phrases("...", driving_vocab)

    def test_sentence_splitting_without_numbering(self, driving_vocab):
        phrases = parse_phrases("Wait at the red light. Turn right.", driving_vocab)
        assert [p.matched for p in phrases] == [("wait", "red_light"), ("turn_right",)]

    def test_inline_numbered_steps(self, driving_vocab):
        phrases = parse_phrases("1. Wait at the red light. 2. Turn right.", driving_vocab)
        assert [p.matched for p in phrases] == [("wait", "red_light"), ("turn_right",)]

    def test_longest_match_first(self, driving_vocab):
        # "opposite cars" must alias to car, never split into pieces
        phrases = parse_phrases("1. Wait for opposite cars.", driving_vocab)
        assert phrases[0].matched == ("wait", "car")

    def test_singular_opposite_car_is_its_own_proposition(self, driving_vocab):
        phrases = parse_phrases("1. Wait for the opposite car.", driving_vocab)
        assert phrases[0].matched == ("wait", "opposite_car")

    def test_matches_never_cross_clause_boundaries(self, driving_vocab):
        phrases = parse_phrases("1. Stop, sign the form.", driving_vocab)
        assert "stop_sign" not in phrases[0].matched

    def test_longest_surface_crossing_a_comma_falls_back_to_a_shorter_one(self):
        phrases = parse_phrases("1. Move straight, ahead.", NESTED_VOCAB)
        assert phrases[0].matched == ("move", "straight", "ahead")
        phrases = parse_phrases("1. Halt at the big stop, sign here.", NESTED_VOCAB)
        assert phrases[0].matched == ("stop", "sign")

    @pytest.mark.parametrize("vocab_name", ["nested", "driving"])
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_matches_brute_force_reference(self, driving_vocab, vocab_name, data):
        vocab = NESTED_VOCAB if vocab_name == "nested" else driving_vocab
        pieces = data.draw(_plan_pieces(vocab))
        text = " ".join(word + sep for word, sep in pieces) + " now"
        (phrase,) = parse_phrases(f"1. {text}.", vocab)
        assert phrase.matched == reference_matches(text, vocab, DEFAULT_NEGATION_WINDOW)

    def test_alias_soundness(self, driving_vocab):
        plans = [
            "1. Go straight at the traffic light.",
            "1. Wait for pedestrians.\n2. Turn left at the green light.",
            "1. Move straight ahead.",
        ]
        for plan in plans:
            for phrase in parse_phrases(plan, driving_vocab):
                tokens = phrase.raw.lower().replace(".", "").split()
                for pid in phrase.matched:
                    prop = driving_vocab.proposition(pid)
                    assert any(
                        all(word in tokens for word in surface.lower().split())
                        for surface in prop.surfaces
                    ), (pid, phrase.raw)


class TestEncode:
    def test_demo_reproduction(self, driving_vocab):
        structure = encode(DEMO_PLAN, driving_vocab, {"car", "truck"})
        assert structure.states == ("q0", "q1", "q2", "q3", "q_done")
        assert structure.initial == frozenset({"q0"})
        assert structure.labeling["q0"] == frozenset({"car"})
        assert structure.labeling["q1"] == frozenset({"wait", "red_light"})
        assert structure.labeling["q2"] == frozenset({"wait", "car"})
        assert structure.labeling["q3"] == frozenset({"turn_left", "green_light"})
        assert structure.labeling["q_done"] == frozenset()
        assert structure.transitions == frozenset(
            {("q0", "q1"), ("q1", "q2"), ("q2", "q3"), ("q3", "q_done"), ("q_done", "q_done")}
        )

    def test_unmatched_phrase_keeps_empty_label(self, driving_vocab):
        structure = encode("1. Whistle a tune.", driving_vocab, set())
        assert structure.states == ("q0", "q1", "q_done")
        assert structure.labeling["q1"] == frozenset()

    def test_deterministic(self, driving_vocab):
        first = encode(DEMO_PLAN, driving_vocab, {"car", "truck"})
        second = encode(DEMO_PLAN, driving_vocab, {"truck", "car"})
        assert first == second

    def test_state_count_invariant(self, driving_vocab):
        rng = random.Random(11)
        steps = ["Wait.", "Move forward.", "Turn left.", "Turn right.", "Wait for the car."]
        for _ in range(25):
            k = rng.randint(1, 5)
            plan = "\n".join(f"{i+1}. {rng.choice(steps)}" for i in range(k))
            structure = encode(plan, driving_vocab, set())
            phrases = parse_phrases(plan, driving_vocab)
            assert len(structure.states) == len(phrases) + 2
            loops = [t for t in structure.transitions if t[0] == t[1]]
            assert loops == [("q_done", "q_done")]
            single_path(structure)  # never raises on encoder output

    def test_observation_monotonicity(self, driving_vocab):
        small = encode(DEMO_PLAN, driving_vocab, {"car"})
        large = encode(DEMO_PLAN, driving_vocab, {"car", "pedestrian", "truck"})
        assert small.labeling["q0"] <= large.labeling["q0"]
        for state in small.states:
            if state != "q0":
                assert small.labeling[state] == large.labeling[state]

    def test_objects_map_to_propositions_by_name(self, driving_vocab):
        structure = encode("1. Wait.", driving_vocab, {"traffic light", "bus", "truck"})
        assert structure.labeling["q0"] == frozenset({"traffic_light"})

    def test_validates_against_vocabulary(self, driving_vocab):
        structure = encode(DEMO_PLAN, driving_vocab, {"car", "truck"})
        structure.validate(driving_vocab)

    def test_parse_errors_propagate(self, driving_vocab):
        with pytest.raises(EmptyPlanError):
            encode("", driving_vocab, set())


class TestBenchmarkShapedText:
    """The benchmark's calibration records: negation cues, apostrophes,
    ``-.,;:!?*`` punctuation and ~2% unencodable texts."""

    @pytest.fixture(scope="class")
    def records(self):
        rows = load_perfbench("gen").plan_records(1, 2000)
        return [PlanRecord(r["plan"], r["confidence"], frozenset(r["objects"])) for r in rows]

    def test_matches_equal_brute_force_reference(self, driving_vocab, records):
        assert any("'" in r.plan for r in records) and any("no " in r.plan for r in records)
        phrases = []
        for record in records:
            try:
                phrases += parse_phrases(record.plan, driving_vocab)
            except NoPhrasesError:
                pass
        assert len(phrases) > 5000
        for phrase in phrases:
            expected = reference_matches(phrase.raw, driving_vocab, DEFAULT_NEGATION_WINDOW)
            assert phrase.matched == expected, phrase.raw

    def test_verdicts_equal_the_trace_oracle(self, driving_vocab, driving_specs, records):
        unencodable = failing = 0
        for record in records:
            assessment = verify_plan(record, driving_specs, driving_vocab)
            if not assessment.encodable:
                unencodable += 1
                continue
            structure = encode(record.plan, driving_vocab, record.observed)
            trace = single_path(structure)
            for (name, verdict), (spec_name, formula) in zip(assessment.verdicts, driving_specs):
                assert name == spec_name
                assert verdict.holds == eval_trace(formula, trace, structure.labeling), (name, record.plan)
                assert verdict.counterexample == (None if verdict.holds else trace)
                failing += not verdict.holds
        assert 0 < unencodable < len(records) * 0.05
        assert 0 < failing < len(records) * len(driving_specs)
