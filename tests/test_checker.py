"""Büchi translation, product emptiness, counterexamples, and SMV export."""
import gc
import random
import re
import time
import weakref

import pytest

from conftest import random_chain, random_formula, random_lasso_labels
from plancheck import bundled_path, checker
from plancheck.checker import (
    Guard,
    NotACounterexampleError,
    NotNegationNormalError,
    TableauTooLargeError,
    check,
    check_all,
    export_smv,
    format_counterexample,
    lasso_word_accepted,
    ltl_to_buchi,
)
from plancheck.fmdp import SpecificationSet
from plancheck.logic import (
    TRUE,
    Always,
    Atom,
    Eventually,
    Implies,
    KripkeStructure,
    Not,
    eval_trace,
    format_formula,
    nnf,
    parse_formula,
    single_path,
)
from plancheck.plan_encoder import encode


def self_loop(labels=frozenset()):
    return KripkeStructure(
        ("q0",), frozenset({"q0"}), frozenset({("q0", "q0")}), {"q0": frozenset(labels)}
    )


# ======================== Büchi translation ========================

class TestLtlToBuchi:
    def test_rejects_non_nnf(self):
        with pytest.raises(NotNegationNormalError):
            ltl_to_buchi(Not(Always(Atom("p"))))
        with pytest.raises(NotNegationNormalError):
            ltl_to_buchi(Implies(Atom("p"), Atom("q")))

    def test_true_is_universal(self):
        automaton = ltl_to_buchi(TRUE)
        rng = random.Random(0)
        for _ in range(20):
            trace, lab = random_lasso_labels(rng)
            prefix = [lab[s] for s in trace.prefix]
            cycle = [lab[s] for s in trace.cycle]
            assert lasso_word_accepted(automaton, prefix, cycle)

    def test_atom_checks_first_position(self):
        automaton = ltl_to_buchi(Atom("p"))
        rng = random.Random(1)
        for _ in range(50):
            trace, lab = random_lasso_labels(rng)
            word = [lab[s] for s in trace.prefix], [lab[s] for s in trace.cycle]
            expected = eval_trace(Atom("p"), trace, lab)
            assert lasso_word_accepted(automaton, *word) == expected

    def test_always_rejects_any_gap(self):
        automaton = ltl_to_buchi(Always(Atom("p")))
        rng = random.Random(2)
        seen_reject = False
        for _ in range(50):
            trace, lab = random_lasso_labels(rng)
            word = [lab[s] for s in trace.prefix], [lab[s] for s in trace.cycle]
            expected = eval_trace(Always(Atom("p")), trace, lab)
            assert lasso_word_accepted(automaton, *word) == expected
            seen_reject |= not expected
        assert seen_reject

    def test_membership_matches_oracle_on_random_formulas(self):
        rng = random.Random(3)
        for _ in range(150):
            formula = nnf(random_formula(rng, rng.randint(1, 4)))
            automaton = ltl_to_buchi(formula)
            trace, lab = random_lasso_labels(rng)
            word = [lab[s] for s in trace.prefix], [lab[s] for s in trace.cycle]
            assert lasso_word_accepted(automaton, *word) == eval_trace(formula, trace, lab)

    def test_guards_never_overlap(self):
        rng = random.Random(4)
        for _ in range(40):
            automaton = ltl_to_buchi(nnf(random_formula(rng, 3)))
            for _, guard, _ in automaton.transitions:
                assert not (guard.required & guard.forbidden)

    def test_states_reachable_from_initial(self):
        rng = random.Random(5)
        for _ in range(40):
            automaton = ltl_to_buchi(nnf(random_formula(rng, 3)))
            out = {s: [] for s in automaton.states}
            for src, _, dst in automaton.transitions:
                out[src].append(dst)
            seen = set(automaton.initial)
            frontier = list(seen)
            while frontier:
                node = frontier.pop()
                for nxt in out[node]:
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
            assert seen == set(automaton.states)

    @pytest.mark.parametrize("depth", [21, 100])
    def test_oversized_tableau_raises_before_building(self, depth, demo_structure):
        formula = parse_formula("G " * depth + "car")
        start = time.perf_counter()
        with pytest.raises(TableauTooLargeError, match=re.escape(f"'{format_formula(formula)}'")):
            ltl_to_buchi(nnf(formula))
        with pytest.raises(TableauTooLargeError, match="F !car"):
            check(demo_structure, formula)
        assert time.perf_counter() - start < 1
        assert issubclass(TableauTooLargeError, ValueError)

    def test_guard_rejects_conflicting_sets(self):
        with pytest.raises(ValueError):
            Guard(frozenset({"p"}), frozenset({"p"}))


# ======================== check ========================

class TestCheck:
    def test_demo_satisfies_red_light_rule(self, demo_structure, driving_vocab):
        formula = parse_formula("G (red_light -> !move_forward)", driving_vocab)
        assert check(demo_structure, formula).holds

    def test_demo_violates_car_then_wait(self, demo_structure, driving_vocab):
        formula = parse_formula("G (car -> X wait)", driving_vocab)
        verdict = check(demo_structure, formula, name="resp")
        assert not verdict.holds
        assert verdict.name == "resp"
        assert verdict.counterexample == single_path(demo_structure)

    def test_true_always_holds(self):
        rng = random.Random(6)
        for _ in range(10):
            assert check(random_chain(rng), TRUE).holds

    def test_invalid_structure_rejected(self):
        broken = KripkeStructure(
            ("a", "b"), frozenset({"a"}), frozenset({("a", "b")}),
            {"a": frozenset(), "b": frozenset()},
        )
        with pytest.raises(Exception, match="left-total"):
            check(broken, TRUE)

    def test_counterexample_is_valid_falsifying_path(self):
        rng = random.Random(7)
        checked = 0
        for _ in range(200):
            structure = random_chain(rng)
            formula = random_formula(rng, rng.randint(1, 4))
            verdict = check(structure, formula)
            if verdict.holds:
                continue
            checked += 1
            cex = verdict.counterexample
            walk = list(cex.prefix) + list(cex.cycle)
            for src, dst in zip(walk, walk[1:]):
                assert (src, dst) in structure.transitions
            assert (cex.cycle[-1], cex.cycle[0]) in structure.transitions
            assert cex.prefix == () or cex.prefix[0] in structure.initial
            assert cex.prefix or cex.cycle[0] in structure.initial
            assert eval_trace(formula, cex, structure.labeling) is False
        assert checked > 20

    def test_duality_on_single_path_structures(self):
        rng = random.Random(8)
        for _ in range(100):
            structure = random_chain(rng)
            formula = random_formula(rng, rng.randint(1, 3))
            holds = check(structure, formula).holds
            negated_holds = check(structure, Not(formula)).holds
            assert not (holds and negated_holds)

    def test_branching_structure_universal_semantics(self):
        # One branch satisfies F p, the other does not: A |= F p must fail.
        structure = KripkeStructure(
            ("a", "b", "c"),
            frozenset({"a"}),
            frozenset({("a", "b"), ("a", "c"), ("b", "b"), ("c", "c")}),
            {"a": frozenset(), "b": frozenset({"p"}), "c": frozenset()},
        )
        verdict = check(structure, Eventually(Atom("p")))
        assert not verdict.holds
        assert "c" in verdict.counterexample.cycle

    def test_product_size_bound(self, demo_structure, driving_vocab):
        formula = nnf(Not(parse_formula("G (car -> X wait)", driving_vocab)))
        automaton = ltl_to_buchi(formula)
        label = {s: demo_structure.labeling[s] for s in demo_structure.states}
        out = {s: [] for s in automaton.states}
        for src, guard, dst in automaton.transitions:
            out[src].append((guard, dst))
        nodes = set()
        frontier = []
        for s in demo_structure.initial:
            for init in automaton.initial:
                for guard, q in out[init]:
                    if guard.admits(label[s]):
                        frontier.append((s, q))
        succ = demo_structure.successor_map()
        while frontier:
            node = frontier.pop()
            if node in nodes:
                continue
            nodes.add(node)
            s, q = node
            for s2 in succ[s]:
                for guard, q2 in out[q]:
                    if guard.admits(label[s2]):
                        frontier.append((s2, q2))
        assert len(nodes) <= len(demo_structure.states) * len(automaton.states)

    def test_no_automaton_outlives_check(self, monkeypatch, demo_structure, driving_vocab):
        built = []

        def keep_a_weakref(formula):
            automaton = ltl_to_buchi(formula)
            built.append(weakref.ref(automaton))
            return automaton

        monkeypatch.setattr(checker, "ltl_to_buchi", keep_a_weakref)
        formula = parse_formula("G (car -> X wait)", driving_vocab)
        first = check(demo_structure, formula)
        assert check(demo_structure, formula) == first and not first.holds
        gc.collect()
        assert len(built) == 2 and all(ref() is None for ref in built)


class TestCheckAll:
    def test_demo_first_two_rules(self, demo_structure, driving_vocab):
        specs = [
            ("phi1", parse_formula("G (red_light -> !move_forward)", driving_vocab)),
            ("phi2", parse_formula("G (pedestrian -> wait)", driving_vocab)),
        ]
        results = check_all(demo_structure, specs)
        assert [(name, v.holds) for name, v in results] == [("phi1", True), ("phi2", True)]

    def test_empty_spec_list(self, demo_structure):
        assert check_all(demo_structure, []) == []

    def test_mixed_verdicts_preserve_order(self, demo_structure, driving_vocab):
        specs = [
            ("phi1", parse_formula("G (red_light -> !move_forward)", driving_vocab)),
            ("resp", parse_formula("G (car -> X wait)", driving_vocab)),
        ]
        results = check_all(demo_structure, specs)
        assert results[0][1].holds and not results[1][1].holds

    def test_lasso_path_equals_check_on_random_chains(self):
        # 250 chains x 4 formulas: whole verdicts, counterexamples included.
        rng = random.Random(41)
        failing = 0
        for _ in range(250):
            structure = random_chain(rng)
            specs = [(f"r{k}", random_formula(rng, rng.randint(1, 4))) for k in range(4)]
            expected = [(name, check(structure, formula, name)) for name, formula in specs]
            assert check_all(structure, specs) == expected
            failing += sum(1 for _, verdict in expected if not verdict.holds)
        assert failing > 100

    def test_lasso_path_equals_check_on_long_cycles(self):
        # Encoder chains end in a one-state loop; these lassos loop through
        # up to four states and may have no prefix, so X, F, G and U must
        # wrap correctly.
        rng = random.Random(42)
        for _ in range(150):
            trace, labeling = random_lasso_labels(rng)
            positions = trace.positions()
            transitions = set(zip(positions, positions[1:]))
            transitions.add((positions[-1], trace.cycle[0]))
            structure = KripkeStructure(
                positions, frozenset({positions[0]}), frozenset(transitions), labeling
            )
            specs = [(f"r{k}", random_formula(rng, rng.randint(2, 4))) for k in range(2)]
            expected = [(name, check(structure, formula, name)) for name, formula in specs]
            assert check_all(structure, specs) == expected

    def test_branching_structure_same_as_check(self):
        structure = KripkeStructure(
            ("a", "b", "c"),
            frozenset({"a"}),
            frozenset({("a", "b"), ("a", "c"), ("b", "b"), ("c", "c")}),
            {"a": frozenset(), "b": frozenset({"p"}), "c": frozenset()},
        )
        specs = [
            ("eventually_p", Eventually(Atom("p"))),
            ("always_not_q", Always(Not(Atom("q")))),
            ("next_p", parse_formula("X p")),
        ]
        results = check_all(structure, specs)
        assert results == [(name, check(structure, formula, name)) for name, formula in specs]
        assert not results[0][1].holds and "c" in results[0][1].counterexample.cycle

    def test_two_initial_states_same_as_check(self):
        structure = KripkeStructure(
            ("a", "b"),
            frozenset({"a", "b"}),
            frozenset({("a", "a"), ("b", "b")}),
            {"a": frozenset({"p"}), "b": frozenset()},
        )
        specs = [("p", Atom("p")), ("always_p", Always(Atom("p")))]
        assert check_all(structure, specs) == [
            (name, check(structure, formula, name)) for name, formula in specs
        ]

    def test_invalid_structure_rejected(self):
        broken = KripkeStructure(
            ("a", "b"), frozenset({"a"}), frozenset({("a", "b")}),
            {"a": frozenset(), "b": frozenset()},
        )
        with pytest.raises(Exception, match="left-total"):
            check_all(broken, [("t", TRUE)])

    def test_each_rule_compiles_once_across_chains(self, driving_vocab):
        # Formulas are interned, so these are the session fixtures' objects,
        # which earlier check_all calls may have compiled.
        specs = SpecificationSet.load(bundled_path("driving_specs.txt"), driving_vocab)
        checker._compile.cache_clear()
        rng = random.Random(7)
        steps = ["Wait at the red light.", "Move forward.", "Turn left for the car.", "Stop."]
        for _ in range(50):
            plan = " ".join(rng.choice(steps) for _ in range(rng.randint(1, 6)))
            structure = encode(plan, driving_vocab, rng.sample(["car", "pedestrian"], rng.randint(0, 2)))
            assert check_all(structure, specs) == [(n, check(structure, f, n)) for n, f in specs]
        assert checker._compile.cache_info().misses == len({f for _, f in specs}) == len(specs)
        for _, formula in specs:
            checker._compile(formula)
        assert checker._compile.cache_info().misses == len(specs)

    def test_criterion_one_calls_the_automaton_path(self):
        # The oracle test must compare eval_trace with check, not with the
        # lasso evaluator behind check_all.
        import inspect

        import test_acceptance

        assert test_acceptance.check is check
        source = inspect.getsource(test_acceptance)
        assert "verdict = check(structure, formula)" in source
        assert "check_all" not in source


# ======================== Counterexample text ========================

class TestCounterexampleText:
    def test_first_block_lists_every_proposition(self, demo_structure, driving_vocab):
        formula = parse_formula("G (car -> X wait)", driving_vocab)
        text = format_counterexample(check(demo_structure, formula), demo_structure)
        lines = text.splitlines()
        assert lines[0].startswith("-- specification") and lines[0].endswith("is false")
        assert lines[1] == "Trace Description: LTL Counterexample"
        assert lines[2] == "Trace Type: Counterexample"
        first_block = text.split("-> State: 1.1 <-")[1].split("-> State: 1.2 <-")[0]
        universe = set().union(*demo_structure.labeling.values()) | {"wait", "car"}
        for prop in universe:
            assert f"{prop} = " in first_block
        # later blocks are delta-encoded
        second_block = text.split("-> State: 1.2 <-")[1].split("-> State: 1.3 <-")[0]
        assert "green_light" not in second_block

    def test_loop_marker_before_first_cycle_state(self, demo_structure, driving_vocab):
        formula = parse_formula("G (car -> X wait)", driving_vocab)
        text = format_counterexample(check(demo_structure, formula), demo_structure)
        lines = text.splitlines()
        marker = lines.index("  -- Loop starts here")
        assert lines[marker + 1] == "  -> State: 1.5 <-"

    def test_single_state_loop(self):
        structure = self_loop({"p"})
        verdict = check(structure, Not(Atom("p")))
        text = format_counterexample(verdict, structure)
        lines = text.splitlines()
        assert lines[3] == "  -- Loop starts here"
        assert lines[4] == "  -> State: 1.1 <-"
        assert text.count("-> State:") == 1

    def test_states_round_trip(self, demo_structure, driving_vocab):
        formula = parse_formula("G (car -> X wait)", driving_vocab)
        verdict = check(demo_structure, formula)
        text = format_counterexample(verdict, demo_structure)
        named = re.findall(r"^    state = (\S+)$", text, flags=re.M)
        assert tuple(named) == verdict.counterexample.prefix + verdict.counterexample.cycle

    def test_holds_is_not_formattable(self, demo_structure):
        with pytest.raises(NotACounterexampleError):
            format_counterexample(check(demo_structure, TRUE), demo_structure)


# ======================== SMV export ========================

class TestExportSmv:
    def test_minimal_module(self):
        text = export_smv(self_loop(), [])
        assert text == (
            "MODULE main\n"
            "VAR\n"
            "  state : {q0};\n"
            "ASSIGN\n"
            "  init(state) := q0;\n"
            "  next(state) := q0;\n"
        )

    def test_demo_module_shape(self, demo_structure, driving_vocab):
        formula = parse_formula("G (red_light -> !move_forward)", driving_vocab)
        text = export_smv(demo_structure, [("phi1", formula)])
        assert "state : {q0, q1, q2, q3, q_done};" in text
        assert "init(state) := q0;" in text
        assert "state = q_done : q_done;" in text
        assert "car := state = q0 | state = q2;" in text
        assert "move_forward := FALSE;" in text
        assert text.endswith("LTLSPEC G (red_light -> !move_forward)\n")

    def test_spec_lines_reparse(self, demo_structure, driving_specs, driving_vocab):
        text = export_smv(demo_structure, list(driving_specs))
        emitted = [l[len("LTLSPEC "):] for l in text.splitlines() if l.startswith("LTLSPEC ")]
        originals = [formula for _, formula in driving_specs]
        assert [parse_formula(e, driving_vocab) for e in emitted] == originals

    def test_byte_deterministic(self, demo_structure, driving_specs):
        assert export_smv(demo_structure, list(driving_specs)) == export_smv(
            demo_structure, list(driving_specs)
        )

    def test_nondeterministic_sets(self):
        structure = KripkeStructure(
            ("a", "b"),
            frozenset({"a", "b"}),
            frozenset({("a", "a"), ("a", "b"), ("b", "b")}),
            {"a": frozenset({"p"}), "b": frozenset()},
        )
        text = export_smv(structure, [])
        assert "init(state) := {a, b};" in text
        assert "state = a : {a, b};" in text
