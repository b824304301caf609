"""Parsing, printing and negation normal form reproduce a pinned golden.

``tests/data/syntax_golden.json`` holds, for every rule of the benchmark
generator's seeds 1 and 11 and for seeded random formulas, one digest per
formula over its parsed AST, ``format_formula`` in both spellings, the
reparse of each printed text, ``nnf`` of the formula and ``nnf`` of its
negation (all as reprs). The first few rows of each group are also stored
in full, so a reader can see what is pinned. For a list of malformed texts
it holds the error type, message and offset. A rewrite of ``logic.py`` may
change how a formula is parsed or printed, never what comes out.

Regenerate (only on purpose, from a commit whose output is trusted) with
``PYTHONPATH=src:tests python tests/test_syntax_golden.py``.
"""
import hashlib
import json
import random
from pathlib import Path

from conftest import load_perfbench, random_formula
from plancheck import bundled_path
from plancheck.logic import Not, Vocabulary, format_formula, nnf, parse_formula

GOLDEN = Path(__file__).parent / "data" / "syntax_golden.json"
RULE_SEEDS = (1, 11)
RANDOM = 3000
EXAMPLES = 10

# (text, parsed against the bundled driving vocabulary)
MALFORMED = (
    ("", False),
    ("   ", False),
    ("p + q", False),
    ("p $", False),
    ("G (p -> ", False),
    ("(p & q", False),
    ("((p)", False),
    ("p q", False),
    ("p & q)", False),
    ("p )", False),
    ("U p", False),
    ("p & U", False),
    ("p U U q", False),
    ("p U", False),
    ("G", False),
    ("!", False),
    ("X & p", False),
    ("F (p U)", False),
    ("p -> -> q", False),
    ("p || q", False),
    ("p -> q | ", False),
    ("Car", False),
    ("Xp", False),
    ("G (zebra -> wait)", True),
    ("car U !zebra", True),
    ("G (car -> X Wait)", True),
)


def rule_formulas():
    gen = load_perfbench("gen")
    return [parse_formula(text) for seed in RULE_SEEDS for text in gen.rules(seed, gen.RULES)]


def random_formulas():
    rng = random.Random(20261021)
    return [random_formula(rng, rng.randint(1, 5)) for _ in range(RANDOM)]


def fields(formula) -> list[str]:
    plain = format_formula(formula)
    smv = format_formula(formula, smv_literals=True)
    return [
        repr(formula),
        plain,
        smv,
        repr(parse_formula(plain)),
        repr(parse_formula(smv)),
        repr(nnf(formula)),
        repr(nnf(Not(formula))),
    ]


def digest(row: list[str]) -> str:
    return hashlib.sha256("\0".join(row).encode()).hexdigest()[:16]


def error_row(text: str, with_vocab: bool) -> list:
    vocab = Vocabulary.load(bundled_path("driving_vocabulary.txt")) if with_vocab else None
    try:
        parse_formula(text, vocab)
    except ValueError as exc:
        return [text, with_vocab, type(exc).__name__, str(exc), exc.offset]
    raise AssertionError(f"{text!r} parsed")


def snapshot() -> dict:
    groups = {"rules": rule_formulas(), "random": random_formulas()}
    return {
        "digests": {name: [digest(fields(f)) for f in group] for name, group in groups.items()},
        "examples": {name: [fields(f) for f in group[:EXAMPLES]] for name, group in groups.items()},
        "errors": [error_row(text, with_vocab) for text, with_vocab in MALFORMED],
    }


def test_printed_and_normalized_forms_match_golden():
    golden = json.loads(GOLDEN.read_text())
    groups = {"rules": rule_formulas(), "random": random_formulas()}
    for name, group in groups.items():
        assert [fields(f) for f in group[:EXAMPLES]] == golden["examples"][name]
        expected = golden["digests"][name]
        assert len(group) == len(expected)
        for formula, want in zip(group, expected):
            row = fields(formula)
            assert digest(row) == want, row


def test_malformed_texts_match_golden():
    golden = json.loads(GOLDEN.read_text())["errors"]
    assert [error_row(text, with_vocab) for text, with_vocab in MALFORMED] == golden


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(snapshot(), separators=(",", ":")) + "\n")
