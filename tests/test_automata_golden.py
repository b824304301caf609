"""Translation and checking reproduce a golden taken before the tableau rewrite.

``tests/data/automata_golden.json`` holds, for seeded random NNF formulas,
the exact ``ltl_to_buchi`` output (states, initial and accepting sets, and
transitions in order, guards as sorted lists), and for seeded random
branching structures the ``check`` verdict and counterexample.  The
translator may change how it computes an automaton, never which automaton it
returns, so every verdict and counterexample stays byte-identical.

Regenerate (only on purpose, from a commit whose output is trusted) with
``PYTHONPATH=src:tests python tests/test_automata_golden.py``.
"""
import json
import random
from pathlib import Path

from conftest import ATOMS, random_formula
from plancheck.checker import check, ltl_to_buchi
from plancheck.logic import KripkeStructure, format_formula, nnf

GOLDEN = Path(__file__).parent / "data" / "automata_golden.json"
AUTOMATA = 200
CHECKS = 300


def golden_formulas():
    rng = random.Random(20261019)
    return [nnf(random_formula(rng, rng.randint(1, 4))) for _ in range(AUTOMATA)]


def random_branching(rng: random.Random) -> KripkeStructure:
    """One to five states, each with one or two successors, one or two initial."""
    states = tuple(f"s{i}" for i in range(rng.randint(1, 5)))
    transitions = {
        (src, dst)
        for src in states
        for dst in rng.sample(states, min(len(states), rng.randint(1, 2)))
    }
    labeling = {s: frozenset(a for a in ATOMS if rng.random() < 0.4) for s in states}
    initial = frozenset(rng.sample(states, min(len(states), rng.randint(1, 2))))
    return KripkeStructure(states, initial, frozenset(transitions), labeling)


def golden_checks():
    rng = random.Random(20261020)
    return [
        (random_branching(rng), random_formula(rng, rng.randint(1, 4))) for _ in range(CHECKS)
    ]


def automaton_row(formula) -> dict:
    automaton = ltl_to_buchi(formula)
    return {
        "formula": format_formula(formula),
        "states": list(automaton.states),
        "initial": sorted(automaton.initial),
        "accepting": sorted(automaton.accepting),
        "transitions": [
            [src, sorted(guard.required), sorted(guard.forbidden), dst]
            for src, guard, dst in automaton.transitions
        ],
    }


def check_row(structure: KripkeStructure, formula) -> dict:
    verdict = check(structure, formula)
    cex = verdict.counterexample
    return {
        "formula": format_formula(formula),
        "structure": [
            list(structure.states),
            sorted(structure.initial),
            sorted(structure.transitions),
            {s: sorted(structure.labeling[s]) for s in structure.states},
        ],
        "holds": verdict.holds,
        "counterexample": None if cex is None else [list(cex.prefix), list(cex.cycle)],
    }


def snapshot() -> dict:
    return {
        "automata": [automaton_row(f) for f in golden_formulas()],
        "checks": [check_row(s, f) for s, f in golden_checks()],
    }


def jsonable(rows: list[dict]) -> list[dict]:
    return json.loads(json.dumps(rows))


def test_automata_match_golden():
    golden = json.loads(GOLDEN.read_text())["automata"]
    rows = jsonable([automaton_row(f) for f in golden_formulas()])
    assert len(rows) == len(golden) == AUTOMATA
    for row, expected in zip(rows, golden):
        assert row == expected, expected["formula"]


def test_branching_checks_match_golden():
    golden = json.loads(GOLDEN.read_text())["checks"]
    rows = jsonable([check_row(s, f) for s, f in golden_checks()])
    assert len(rows) == len(golden) == CHECKS
    assert any(not row["holds"] for row in golden) and any(row["holds"] for row in golden)
    for row, expected in zip(rows, golden):
        assert row == expected, expected["formula"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(snapshot(), separators=(",", ":")) + "\n")
