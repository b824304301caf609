"""Formula language, trace semantics, vocabulary, and structure invariants."""
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_lasso_labels
from plancheck.logic import (
    FALSE,
    MAX_NESTING,
    TRUE,
    Always,
    And,
    Atom,
    AtomicProposition,
    Eventually,
    Implies,
    KripkeStructure,
    LassoTrace,
    LtlSyntaxError,
    Next,
    NondeterministicStructureError,
    Not,
    Or,
    StructureInvariantError,
    UnknownAtomError,
    Until,
    Vocabulary,
    VocabularyError,
    atoms_of,
    eval_trace,
    format_formula,
    is_nnf,
    load_specifications,
    nnf,
    parse_formula,
    single_path,
)
from plancheck.plan_encoder import encode


# ======================== Parsing ========================

class TestParsing:
    def test_safety_rule(self, driving_vocab):
        formula = parse_formula("G (red_light -> !move_forward)", driving_vocab)
        assert formula == Always(Implies(Atom("red_light"), Not(Atom("move_forward"))))

    def test_single_atom(self, driving_vocab):
        assert parse_formula("wait", driving_vocab) == Atom("wait")

    def test_nested_disjunction_rule(self, driving_vocab):
        formula = parse_formula(
            "G (green_light & opposite_car -> (wait | move_forward | turn_right))",
            driving_vocab,
        )
        expected = Always(
            Implies(
                And(Atom("green_light"), Atom("opposite_car")),
                Or(Or(Atom("wait"), Atom("move_forward")), Atom("turn_right")),
            )
        )
        assert formula == expected

    def test_precedence_unary_tightest(self):
        assert parse_formula("!p & q") == And(Not(Atom("p")), Atom("q"))
        assert parse_formula("G p | q") == Or(Always(Atom("p")), Atom("q"))

    def test_until_right_associative(self):
        assert parse_formula("p U q U r") == Until(Atom("p"), Until(Atom("q"), Atom("r")))

    def test_implies_right_associative(self):
        assert parse_formula("p -> q -> r") == Implies(Atom("p"), Implies(Atom("q"), Atom("r")))

    def test_until_binds_tighter_than_and(self):
        assert parse_formula("p & q U r") == And(Atom("p"), Until(Atom("q"), Atom("r")))

    def test_boolean_literals(self):
        assert parse_formula("true") is TRUE
        assert parse_formula("FALSE") is FALSE

    def test_syntax_error_reports_offset(self):
        with pytest.raises(LtlSyntaxError) as info:
            parse_formula("G (p -> ")
        assert info.value.offset == 8

    def test_unknown_atom_named(self, driving_vocab):
        with pytest.raises(UnknownAtomError) as info:
            parse_formula("G (zebra -> wait)", driving_vocab)
        assert info.value.name == "zebra"

    def test_empty_formula(self):
        with pytest.raises(LtlSyntaxError):
            parse_formula("   ")

    def test_stray_character(self):
        with pytest.raises(LtlSyntaxError) as info:
            parse_formula("p + q")
        assert info.value.offset == 2

    @pytest.mark.parametrize(
        "build",
        (
            lambda n: ("(" * n + "p" + ")" * n, n - 1),
            lambda n: ("!" * n + "p", n - 1),
            lambda n: (" & ".join("p" * (n + 1)), 4 * n - 2),
            lambda n: (" U ".join("p" * (n + 1)), 4 * n - 2),
            # 50 parentheses around a chain of n - 50 conjunctions
            lambda n: ("(" * 50 + " & ".join("p" * (n - 49)) + ")" * 50, 50 + 4 * (n - 50) - 2),
        ),
        ids=("parentheses", "negations", "and-chain", "until-chain", "mixed"),
    )
    def test_nesting_bound(self, build):
        text, _ = build(MAX_NESTING)
        parse_formula(text)
        text, crossing = build(MAX_NESTING + 1)
        with pytest.raises(LtlSyntaxError, match="nested deeper than") as info:
            parse_formula(text)
        assert info.value.offset == crossing


# ======================== Printing round trip ========================

atom_names = st.sampled_from(["p", "q", "r"])
formulas = st.recursive(
    st.one_of(st.builds(Atom, atom_names), st.just(TRUE), st.just(FALSE)),
    lambda inner: st.one_of(
        st.builds(Not, inner),
        st.builds(Next, inner),
        st.builds(Always, inner),
        st.builds(Eventually, inner),
        st.builds(And, inner, inner),
        st.builds(Or, inner, inner),
        st.builds(Implies, inner, inner),
        st.builds(Until, inner, inner),
    ),
    max_leaves=10,
)


@given(formulas)
def test_print_parse_round_trip(formula):
    assert parse_formula(format_formula(formula)) == formula


@given(formulas)
def test_smv_spelling_reparses(formula):
    assert parse_formula(format_formula(formula, smv_literals=True)) == formula


# ======================== Trace evaluation ========================

def lasso(prefix, cycle, labeling):
    return LassoTrace(tuple(prefix), tuple(cycle)), {
        k: frozenset(v) for k, v in labeling.items()
    }


class TestEvalTrace:
    def test_always_on_uniform_trace(self):
        trace, lab = lasso(["a"], ["b"], {"a": {"p"}, "b": {"p"}})
        assert eval_trace(Always(Atom("p")), trace, lab)

    def test_demo_eventually_not_wait(self, demo_structure):
        trace = single_path(demo_structure)
        assert eval_trace(Eventually(Not(Atom("wait"))), trace, demo_structure.labeling)

    def test_demo_next_wait(self, demo_structure):
        trace = single_path(demo_structure)
        assert eval_trace(Next(Atom("wait")), trace, demo_structure.labeling)

    def test_until_wraps_through_cycle(self):
        # q satisfied only at the second cycle position: reachable by wrapping.
        trace, lab = lasso([], ["a", "b"], {"a": {"p"}, "b": {"p", "q"}})
        assert eval_trace(Until(Atom("p"), Atom("q")), trace, lab)

    def test_until_needs_left_to_hold(self):
        trace, lab = lasso([], ["a", "b"], {"a": set(), "b": {"q"}})
        assert not eval_trace(Until(Atom("p"), Atom("q")), trace, lab)

    def test_next_wraps_to_cycle_start(self):
        trace, lab = lasso(["a"], ["b"], {"a": set(), "b": {"p"}})
        assert eval_trace(Always(Implies(Atom("p"), Next(Atom("p")))), trace, lab)


@given(st.randoms(use_true_random=False))
def test_nnf_preserves_evaluation(rnd):
    from conftest import random_formula

    rng = random.Random(rnd.getrandbits(32))
    formula = random_formula(rng, rng.randint(1, 4))
    trace, lab = random_lasso_labels(rng)
    transformed = nnf(formula)
    assert is_nnf(transformed)
    assert eval_trace(formula, trace, lab) == eval_trace(transformed, trace, lab)


@given(st.randoms(use_true_random=False))
def test_always_eventually_duality(rnd):
    from conftest import random_formula

    rng = random.Random(rnd.getrandbits(32))
    inner = random_formula(rng, rng.randint(0, 3))
    trace, lab = random_lasso_labels(rng)
    assert eval_trace(Always(inner), trace, lab) == (
        not eval_trace(Eventually(Not(inner)), trace, lab)
    )


@given(st.randoms(use_true_random=False))
def test_unrolling_invariance(rnd):
    from conftest import random_formula

    rng = random.Random(rnd.getrandbits(32))
    formula = random_formula(rng, rng.randint(1, 4))
    trace, lab = random_lasso_labels(rng)
    unrolled = LassoTrace(trace.prefix + trace.cycle, trace.cycle)
    assert eval_trace(formula, trace, lab) == eval_trace(formula, unrolled, lab)


# ======================== single_path ========================

class TestSinglePath:
    def test_demo_lasso(self, demo_structure):
        trace = single_path(demo_structure)
        assert trace.prefix == ("q0", "q1", "q2", "q3")
        assert trace.cycle == ("q_done",)

    def test_self_loop_only(self):
        structure = KripkeStructure(
            ("q0",), frozenset({"q0"}), frozenset({("q0", "q0")}), {"q0": frozenset()}
        )
        trace = single_path(structure)
        assert trace.prefix == () and trace.cycle == ("q0",)

    def test_branching_rejected(self):
        structure = KripkeStructure(
            ("a", "b"),
            frozenset({"a"}),
            frozenset({("a", "b"), ("b", "a"), ("b", "b")}),
            {"a": frozenset(), "b": frozenset()},
        )
        with pytest.raises(NondeterministicStructureError):
            single_path(structure)

    def test_multiple_initials_rejected(self):
        structure = KripkeStructure(
            ("a", "b"),
            frozenset({"a", "b"}),
            frozenset({("a", "b"), ("b", "a")}),
            {"a": frozenset(), "b": frozenset()},
        )
        with pytest.raises(NondeterministicStructureError):
            single_path(structure)


# ======================== Structures and traces ========================

class TestStructureInvariants:
    def test_not_left_total(self):
        structure = KripkeStructure(
            ("a", "b"), frozenset({"a"}), frozenset({("a", "b")}),
            {"a": frozenset(), "b": frozenset()},
        )
        with pytest.raises(StructureInvariantError, match="left-total"):
            structure.validate()

    def test_unknown_initial(self):
        structure = KripkeStructure(
            ("a",), frozenset({"z"}), frozenset({("a", "a")}), {"a": frozenset()}
        )
        with pytest.raises(StructureInvariantError):
            structure.validate()

    def test_label_outside_vocabulary(self, driving_vocab):
        structure = KripkeStructure(
            ("a",), frozenset({"a"}), frozenset({("a", "a")}), {"a": frozenset({"zebra"})}
        )
        with pytest.raises(StructureInvariantError):
            structure.validate(driving_vocab)

    def test_empty_cycle_rejected(self):
        with pytest.raises(ValueError):
            LassoTrace(("a",), ())


# ======================== Vocabulary ========================

class TestVocabulary:
    def test_bundled_driving_vocabulary(self, driving_vocab):
        assert "red_light" in driving_vocab
        assert "truck" not in driving_vocab  # object label, not a proposition
        assert "truck" in driving_vocab.objects

    def test_observed_objects_map_by_name(self, driving_vocab):
        assert driving_vocab.observed_propositions({"car", "truck"}) == frozenset({"car"})
        assert driving_vocab.observed_propositions({"traffic light"}) == frozenset(
            {"traffic_light"}
        )

    def test_bad_identifier(self):
        with pytest.raises(VocabularyError):
            AtomicProposition("Red_Light", "red light")

    def test_display_must_derive_from_id(self):
        with pytest.raises(VocabularyError):
            AtomicProposition("red_light", "crimson signal")

    def test_duplicate_ids(self):
        prop = AtomicProposition("wait", "wait")
        with pytest.raises(VocabularyError):
            Vocabulary([prop, prop])

    def test_ambiguous_alias(self):
        first = AtomicProposition("wait", "wait", ("hold on",))
        second = AtomicProposition("stop", "stop", ("hold on",))
        with pytest.raises(VocabularyError, match="hold on"):
            Vocabulary([first, second])

    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("alpha: first thing\nbeta:\n[objects]\nalpha\nwidget\n")
        vocab = Vocabulary.load(path)
        assert vocab.prop_ids == {"alpha", "beta"}
        assert vocab.objects == ("alpha", "widget")
        assert vocab.surface_table[("first", "thing")] == "alpha"


# ======================== Specification files ========================

class TestSpecFiles:
    def test_load_bundled_driving_specs(self, driving_vocab):
        specs = load_specifications("src/plancheck/data/driving_specs.txt", driving_vocab)
        assert [name for name, _ in specs] == [f"phi{i}" for i in range(1, 11)]
        assert specs[0][1] == Always(Implies(Atom("red_light"), Not(Atom("move_forward"))))

    def test_duplicate_names_rejected(self, tmp_path):
        path = tmp_path / "specs.txt"
        path.write_text("a: p\na: q\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_specifications(path)

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "specs.txt"
        path.write_text("# header\n\nrule: G p  # trailing\n")
        specs = load_specifications(path)
        assert specs == [("rule", Always(Atom("p")))]

    def test_atoms_of(self):
        formula = parse_formula("G (p -> q U r)")
        assert atoms_of(formula) == {"p", "q", "r"}


class TestTabletopBundle:
    def test_vocabulary_and_specs_load(self):
        from plancheck import bundled_path

        vocab = Vocabulary.load(bundled_path("tabletop_vocabulary.txt"))
        specs = load_specifications(bundled_path("tabletop_specs.txt"), vocab)
        assert [name for name, _ in specs] == [f"phi{i}" for i in range(1, 6)]
        assert "grab_the_block" in vocab
        assert "table" in vocab.objects

    def test_manipulation_plan_encodes(self):
        from plancheck import bundled_path

        vocab = Vocabulary.load(bundled_path("tabletop_vocabulary.txt"))
        structure = encode(
            "1. Locate the block.\n2. Pick up the block.", vocab, {"block", "bowl", "table"}
        )
        assert structure.labeling["q0"] == frozenset({"block", "bowl"})
        assert structure.labeling["q1"] == frozenset({"locate_the_block"})
        assert structure.labeling["q2"] == frozenset({"grab_the_block"})

    def test_no_grabbing_tableware(self):
        from plancheck import bundled_path
        from plancheck.checker import check

        vocab = Vocabulary.load(bundled_path("tabletop_vocabulary.txt"))
        specs = dict(load_specifications(bundled_path("tabletop_specs.txt"), vocab))
        good = encode("1. Pick up the block.", vocab, {"block"})
        bad = encode("1. Pick up the cup.", vocab, {"cup"})
        assert check(good, specs["phi1"]).holds
        assert not check(bad, specs["phi1"]).holds
