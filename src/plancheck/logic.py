"""Atomic propositions, LTL formulas, Kripke structures, and lasso traces.

The formula language uses NuSMV-style concrete syntax so emitted model files
and parsed specifications stay line-comparable:

    prefix operators  !  X  G  F        (tightest)
    binary operators  U  (right-assoc), &, |, -> (loosest, right-assoc)

``eval_trace`` gives exact LTL semantics on ultimately-periodic traces and is
the independent oracle the model checker is tested against.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

from .inputs import numbered_lines

ID_PATTERN = re.compile(r"[a-z][a-z0-9_]*\Z")
_WORD = re.compile(r"[a-z0-9']+")


class VocabularyError(ValueError):
    """Malformed vocabulary: bad identifier, duplicate id, or ambiguous alias."""


class LtlSyntaxError(ValueError):
    """Formula text does not parse; carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownAtomError(ValueError):
    """Formula references an identifier absent from the bound vocabulary."""

    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown atomic proposition {name!r} (at offset {offset})")
        self.name = name
        self.offset = offset


class StructureInvariantError(ValueError):
    """Kripke structure violates a well-formedness invariant."""


class NondeterministicStructureError(ValueError):
    """Structure does not denote a single path (branching or multiple initials)."""


def normalize_tokens(text: str) -> tuple[str, ...]:
    """Lowercase, strip punctuation, collapse whitespace; returns word tokens."""
    return tuple(m.group(0).replace("'", "") for m in _WORD.finditer(text.lower()))


@lru_cache(maxsize=1024)
def _label_id(label: str) -> str:
    """The proposition id an object label would name: its words joined by ``_``."""
    return "_".join(normalize_tokens(label))


# --------------------------------------------------------------------------
# Vocabulary
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class AtomicProposition:
    id: str
    display: str
    aliases: tuple[str, ...] = ()

    def __post_init__(self):
        if not ID_PATTERN.match(self.id):
            raise VocabularyError(f"proposition id {self.id!r} must match [a-z][a-z0-9_]*")
        derived = self.id.replace("_", " ")
        if " ".join(normalize_tokens(self.display)) != derived and self.display not in self.aliases:
            raise VocabularyError(
                f"display {self.display!r} is neither derivable from id {self.id!r} nor listed"
            )

    @property
    def surfaces(self) -> tuple[str, ...]:
        return (self.display, *self.aliases)


class Vocabulary:
    """Proposition lexicon plus the object labels a perceptor may report.

    Every surface form (display text and aliases) is normalized at
    construction; an alias mapping to two different proposition ids is
    rejected, so the matching table is closed under normalization.
    """

    def __init__(self, propositions: Iterable[AtomicProposition], objects: Iterable[str] = ()):
        self.propositions = tuple(propositions)
        self.objects = tuple(dict.fromkeys(objects))
        self._by_id: dict[str, AtomicProposition] = {}
        self.surface_table: dict[tuple[str, ...], str] = {}
        for prop in self.propositions:
            _register(prop, self._by_id, self.surface_table)
        # First token -> lengths of the surfaces starting with it, longest
        # first: phrase scanning looks the table up at each length in turn,
        # so the longest match wins.
        starts: dict[str, set[int]] = {}
        for key in self.surface_table:
            starts.setdefault(key[0], set()).add(len(key))
        self.surface_starts = {
            word: tuple(sorted(lengths, reverse=True)) for word, lengths in starts.items()
        }

    def __contains__(self, prop_id: str) -> bool:
        return prop_id in self._by_id

    def __len__(self) -> int:
        return len(self.propositions)

    @property
    def prop_ids(self) -> frozenset[str]:
        return frozenset(self._by_id)

    def proposition(self, prop_id: str) -> AtomicProposition:
        return self._by_id[prop_id]

    def observed_propositions(self, labels: Iterable[str]) -> frozenset[str]:
        """Map object labels onto same-named propositions; unmapped labels drop."""
        return frozenset(pid for pid in map(_label_id, labels) if pid in self._by_id)

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        """Read the line-oriented vocabulary format.

        One proposition per line as ``id: alias1; alias2``; object labels
        follow an ``[objects]`` section header. ``#`` starts a comment.
        """
        props: list[AtomicProposition] = []
        objects: list[str] = []
        by_id: dict[str, AtomicProposition] = {}
        table: dict[tuple[str, ...], str] = {}
        in_objects = False
        with numbered_lines(path) as lines:
            for raw in lines:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if line.lower() == "[objects]":
                    in_objects = True
                    continue
                if in_objects:
                    objects.append(line)
                    continue
                head, _, tail = line.partition(":")
                pid = head.strip()
                aliases = tuple(a.strip() for a in tail.split(";") if a.strip())
                props.append(AtomicProposition(pid, pid.replace("_", " "), aliases))
                # Checked here too, so that a clash names the line it is on.
                _register(props[-1], by_id, table)
        return cls(props, objects)


def _register(
    prop: AtomicProposition,
    by_id: dict[str, AtomicProposition],
    table: dict[tuple[str, ...], str],
) -> None:
    """Add ``prop`` to the id and surface tables; a duplicate id, an empty
    surface or a surface that already names another id is an error."""
    if prop.id in by_id:
        raise VocabularyError(f"duplicate proposition id {prop.id!r}")
    by_id[prop.id] = prop
    for surface in prop.surfaces:
        key = normalize_tokens(surface)
        if not key:
            raise VocabularyError(f"empty surface form for {prop.id!r}")
        if table.get(key, prop.id) != prop.id:
            raise VocabularyError(
                f"surface {surface!r} maps to both {table[key]!r} and {prop.id!r}"
            )
        table[key] = prop.id


# --------------------------------------------------------------------------
# Formula AST
# --------------------------------------------------------------------------

class LtlFormula:
    """Base class for formula nodes; all nodes are frozen and hashable."""

    __slots__ = ()


@dataclass(frozen=True)
class TrueFormula(LtlFormula):
    pass


@dataclass(frozen=True)
class FalseFormula(LtlFormula):
    pass


@dataclass(frozen=True)
class Atom(LtlFormula):
    name: str


@dataclass(frozen=True)
class Not(LtlFormula):
    operand: LtlFormula


@dataclass(frozen=True)
class Next(LtlFormula):
    operand: LtlFormula


@dataclass(frozen=True)
class Always(LtlFormula):
    operand: LtlFormula


@dataclass(frozen=True)
class Eventually(LtlFormula):
    operand: LtlFormula


@dataclass(frozen=True)
class And(LtlFormula):
    left: LtlFormula
    right: LtlFormula


@dataclass(frozen=True)
class Or(LtlFormula):
    left: LtlFormula
    right: LtlFormula


@dataclass(frozen=True)
class Implies(LtlFormula):
    left: LtlFormula
    right: LtlFormula


@dataclass(frozen=True)
class Until(LtlFormula):
    left: LtlFormula
    right: LtlFormula


TRUE = TrueFormula()
FALSE = FalseFormula()


class _Op(NamedTuple):
    """How an operator is written and how a negation passes through it."""

    token: str
    prec: int
    right_assoc: bool = False
    dual: type | None = None  # None: nnf rewrites the negation itself


# The one description of the operator syntax: the parser, the printer,
# ``children`` and ``nnf`` all read it. Binary operators bind from loosest (1)
# to tightest (4); prefix operators bind tighter than any of them.
_PREFIX = 5
_SYNTAX: dict[type, _Op] = {
    Implies: _Op("->", 1, right_assoc=True),
    Or: _Op("|", 2, dual=And),
    And: _Op("&", 3, dual=Or),
    Until: _Op("U", 4, right_assoc=True),
    Not: _Op("!", _PREFIX),
    Next: _Op("X", _PREFIX, dual=Next),
    Always: _Op("G", _PREFIX, dual=Eventually),
    Eventually: _Op("F", _PREFIX, dual=Always),
}
_BY_TOKEN = {op.token: cls for cls, op in _SYNTAX.items()}

# Parentheses and operators nested deeper than this are a syntax error, so
# that no recursive walk over a parsed formula can exhaust the stack.
MAX_NESTING = 100


def children(formula: LtlFormula) -> tuple[LtlFormula, ...]:
    op = _SYNTAX.get(type(formula))
    if op is None:
        return ()
    return (formula.operand,) if op.prec == _PREFIX else (formula.left, formula.right)


def subformulas(formula: LtlFormula) -> list[LtlFormula]:
    """Distinct subformulas in deterministic preorder."""
    out: list[LtlFormula] = []
    seen: set[LtlFormula] = set()

    def walk(node: LtlFormula) -> None:
        if node in seen:
            return
        seen.add(node)
        out.append(node)
        for child in children(node):
            walk(child)

    walk(formula)
    return out


def atoms_of(formula: LtlFormula) -> frozenset[str]:
    return frozenset(f.name for f in subformulas(formula) if isinstance(f, Atom))


# --------------------------------------------------------------------------
# Parsing and printing
# --------------------------------------------------------------------------

_TOKEN_SPEC = re.compile(
    r"(?P<ws>\s+)|(?P<word>[A-Za-z_][A-Za-z0-9_]*)|(?P<sym>[()]|"
    + "|".join(re.escape(token) for token in _BY_TOKEN if not token.isalpha())
    + ")"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_SPEC.match(text, pos)
        if match is None:
            raise LtlSyntaxError(f"unexpected character {text[pos]!r}", pos)
        kind = match.lastgroup
        if kind != "ws":
            tokens.append((kind, match.group(0), pos))
        pos = match.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    """Precedence climbing over ``_SYNTAX``.

    Each method takes ``depth``, the parentheses and operators around the
    text it parses, and returns the formula with its own nesting height, so
    that the parser stops at the token where ``depth + height`` would pass
    ``MAX_NESTING``, before its own recursion gets that deep.
    """

    def __init__(self, text: str, vocab: Vocabulary | None):
        self.tokens = _tokenize(text)
        self.vocab = vocab
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def take(self) -> tuple[str, str, int]:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    @staticmethod
    def nest(level: int, offset: int) -> None:
        if level > MAX_NESTING:
            raise LtlSyntaxError(f"formula nested deeper than {MAX_NESTING} levels", offset)

    def parse(self) -> LtlFormula:
        formula, _ = self.binary(0)
        kind, value, offset = self.peek()
        if kind != "eof":
            raise LtlSyntaxError(f"unexpected token {value!r}", offset)
        return formula

    def binary(self, depth: int, min_prec: int = 1) -> tuple[LtlFormula, int]:
        """Operands joined by binary operators that bind at least ``min_prec``."""
        left, height = self.prefix(depth)
        while True:
            cls = _BY_TOKEN.get(self.peek()[1])
            op = _SYNTAX.get(cls)
            if op is None or not min_prec <= op.prec < _PREFIX:
                return left, height
            self.nest(depth + height + 1, self.take()[2])
            right, right_height = self.binary(depth + 1, op.prec + (not op.right_assoc))
            left, height = cls(left, right), max(height, right_height) + 1

    def prefix(self, depth: int) -> tuple[LtlFormula, int]:
        _, value, offset = self.peek()
        cls = _BY_TOKEN.get(value)
        if cls is None or _SYNTAX[cls].prec != _PREFIX:
            return self.primary(depth)
        self.take()
        self.nest(depth + 1, offset)
        operand, height = self.prefix(depth + 1)
        return cls(operand), height + 1

    def primary(self, depth: int) -> tuple[LtlFormula, int]:
        kind, value, offset = self.take()
        if value == "(":
            self.nest(depth + 1, offset)
            inner, height = self.binary(depth + 1)
            k, v, o = self.take()
            if v != ")":
                raise LtlSyntaxError("expected ')'", o)
            return inner, height + 1
        if kind == "word":
            if value in ("true", "TRUE"):
                return TRUE, 0
            if value in ("false", "FALSE"):
                return FALSE, 0
            if value in _BY_TOKEN:
                raise LtlSyntaxError(f"operator {value!r} needs an operand", offset)
            if not ID_PATTERN.match(value):
                raise LtlSyntaxError(f"invalid identifier {value!r}", offset)
            if self.vocab is not None and value not in self.vocab:
                raise UnknownAtomError(value, offset)
            return Atom(value), 0
        raise LtlSyntaxError(f"expected a formula, found {value!r}" if value else "unexpected end of input", offset)


def parse_formula(text: str, vocab: Vocabulary | None = None) -> LtlFormula:
    """Parse concrete LTL syntax; atoms are resolved against ``vocab`` if given.

    Nesting deeper than ``MAX_NESTING``, counting each operator and each pair
    of parentheses, raises LtlSyntaxError at the token that crosses it.
    """
    if not text.strip():
        raise LtlSyntaxError("empty formula", 0)
    return _Parser(text, vocab).parse()


def format_formula(formula: LtlFormula, smv_literals: bool = False) -> str:
    """Print a formula so that reparsing yields an identical AST.

    With ``smv_literals`` the boolean constants are spelled TRUE/FALSE as in
    SMV model files; the operators are shared between both syntaxes.
    """

    def fmt(node: LtlFormula, bound: int = 0) -> str:
        """``node``, parenthesized if its operator binds looser than ``bound``."""
        op = _SYNTAX.get(type(node))
        if op is None:
            if isinstance(node, TrueFormula):
                return "TRUE" if smv_literals else "true"
            if isinstance(node, FalseFormula):
                return "FALSE" if smv_literals else "false"
            if isinstance(node, Atom):
                return node.name
            raise TypeError(f"not a formula node: {node!r}")
        if op.prec == _PREFIX:
            space = " " if op.token.isalpha() else ""
            text = op.token + space + fmt(node.operand, _PREFIX)
        else:
            left = fmt(node.left, op.prec + op.right_assoc)
            text = f"{left} {op.token} {fmt(node.right, op.prec + (not op.right_assoc))}"
        return f"({text})" if op.prec < bound else text

    return fmt(formula)


def nnf(formula: LtlFormula) -> LtlFormula:
    """Negation normal form: no implications, negation only on atoms.

    Negated Until rewrites within the G/F/U operator set:
    ``!(a U b)  ==  (!b U (!a & !b)) | G !b``.
    """
    cls = type(formula)
    if cls is Implies:
        return Or(nnf(Not(formula.left)), nnf(formula.right))
    if cls is not Not:
        if cls in _SYNTAX:
            return cls(*map(nnf, children(formula)))
        if isinstance(formula, (TrueFormula, FalseFormula, Atom)):
            return formula
        raise TypeError(f"not a formula node: {formula!r}")
    inner = formula.operand
    dual = _SYNTAX[type(inner)].dual if type(inner) in _SYNTAX else None
    if dual is not None:
        return dual(*(nnf(Not(child)) for child in children(inner)))
    if isinstance(inner, Not):
        return nnf(inner.operand)
    if isinstance(inner, Implies):
        return And(nnf(inner.left), nnf(Not(inner.right)))
    if isinstance(inner, Until):
        not_a = nnf(Not(inner.left))
        not_b = nnf(Not(inner.right))
        return Or(Until(not_b, And(not_a, not_b)), Always(not_b))
    if isinstance(inner, Atom):
        return formula
    if isinstance(inner, TrueFormula):
        return FALSE
    if isinstance(inner, FalseFormula):
        return TRUE
    raise TypeError(f"not a formula node: {formula!r}")


def is_nnf(formula: LtlFormula) -> bool:
    for node in subformulas(formula):
        if isinstance(node, Implies):
            return False
        if isinstance(node, Not) and not isinstance(node.operand, Atom):
            return False
    return True


# --------------------------------------------------------------------------
# Kripke structures and lasso traces
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class KripkeStructure:
    """Finite transition system with labeled states.

    ``states`` keeps construction order so every emitter is deterministic.
    """

    states: tuple[str, ...]
    initial: frozenset[str]
    transitions: frozenset[tuple[str, str]]
    labeling: Mapping[str, frozenset[str]]

    def validate(self, vocab: Vocabulary | None = None) -> None:
        state_set = set(self.states)
        if len(state_set) != len(self.states):
            raise StructureInvariantError("duplicate state ids")
        if not self.initial <= state_set:
            raise StructureInvariantError("initial states outside the state set")
        for src, dst in self.transitions:
            if src not in state_set or dst not in state_set:
                raise StructureInvariantError(f"transition endpoint outside states: {(src, dst)}")
        sources = {src for src, _ in self.transitions}
        missing = state_set - sources
        if missing:
            raise StructureInvariantError(f"not left-total; states without successors: {sorted(missing)}")
        if set(self.labeling) != state_set:
            raise StructureInvariantError("labeling domain differs from the state set")
        if vocab is not None:
            for state, labels in self.labeling.items():
                extra = set(labels) - vocab.prop_ids
                if extra:
                    raise StructureInvariantError(f"labels of {state} outside vocabulary: {sorted(extra)}")

    def successor_map(self) -> dict[str, list[str]]:
        order = {s: i for i, s in enumerate(self.states)}
        result: dict[str, list[str]] = {s: [] for s in self.states}
        for src, dst in self.transitions:
            result[src].append(dst)
        for outs in result.values():
            outs.sort(key=order.__getitem__)
        return result


@dataclass(frozen=True)
class LassoTrace:
    """Ultimately periodic path: ``prefix`` then ``cycle`` repeated forever."""

    prefix: tuple[str, ...]
    cycle: tuple[str, ...]

    def __post_init__(self):
        if not self.cycle:
            raise ValueError("lasso cycle must be nonempty")

    def positions(self) -> tuple[str, ...]:
        return self.prefix + self.cycle


def eval_trace(
    formula: LtlFormula,
    trace: LassoTrace,
    labeling: Mapping[str, Iterable[str]],
) -> bool:
    """Exact satisfaction of ``formula`` at position 0 of the lasso's word.

    Computed by fixpoint iteration over the finitely many positions; Next and
    Until wrap from the last cycle position back to the first, so there is no
    bounded unrolling anywhere.
    """
    seq = list(trace.prefix) + list(trace.cycle)
    n = len(seq)
    loop = len(trace.prefix)
    succ = [i + 1 for i in range(n)]
    succ[n - 1] = loop
    labels = [frozenset(labeling[state]) for state in seq]
    memo: dict[LtlFormula, list[bool]] = {}

    def values(node: LtlFormula) -> list[bool]:
        cached = memo.get(node)
        if cached is not None:
            return cached
        if isinstance(node, TrueFormula):
            vals = [True] * n
        elif isinstance(node, FalseFormula):
            vals = [False] * n
        elif isinstance(node, Atom):
            vals = [node.name in labels[i] for i in range(n)]
        elif isinstance(node, Not):
            vals = [not v for v in values(node.operand)]
        elif isinstance(node, And):
            left, right = values(node.left), values(node.right)
            vals = [a and b for a, b in zip(left, right)]
        elif isinstance(node, Or):
            left, right = values(node.left), values(node.right)
            vals = [a or b for a, b in zip(left, right)]
        elif isinstance(node, Implies):
            left, right = values(node.left), values(node.right)
            vals = [(not a) or b for a, b in zip(left, right)]
        elif isinstance(node, Next):
            child = values(node.operand)
            vals = [child[succ[i]] for i in range(n)]
        elif isinstance(node, Until):
            left, right = values(node.left), values(node.right)
            vals = _fixpoint(lambda cur, i: right[i] or (left[i] and cur[succ[i]]), n, False)
        elif isinstance(node, Eventually):
            child = values(node.operand)
            vals = _fixpoint(lambda cur, i: child[i] or cur[succ[i]], n, False)
        elif isinstance(node, Always):
            child = values(node.operand)
            vals = _fixpoint(lambda cur, i: child[i] and cur[succ[i]], n, True)
        else:
            raise TypeError(f"not a formula node: {node!r}")
        memo[node] = vals
        return vals

    return values(formula)[0]


def _fixpoint(step, n: int, start: bool) -> list[bool]:
    """Iterate ``step`` from all-``start`` until nothing changes: the least
    fixpoint from False, the greatest from True."""
    vals = [start] * n
    changed = True
    while changed:
        changed = False
        for i in range(n - 1, -1, -1):
            new = step(vals, i)
            if new != vals[i]:
                vals[i] = new
                changed = True
    return vals


def single_path(structure: KripkeStructure) -> LassoTrace:
    """The unique lasso of a deterministic structure (one initial, one successor each)."""
    if len(structure.initial) != 1:
        raise NondeterministicStructureError(
            f"expected exactly one initial state, found {len(structure.initial)}"
        )
    succ: dict[str, str] = {}
    for state, outs in structure.successor_map().items():
        if len(outs) != 1:
            raise NondeterministicStructureError(
                f"state {state!r} has {len(outs)} successors, expected exactly 1"
            )
        succ[state] = outs[0]
    order: list[str] = []
    seen: dict[str, int] = {}
    current = next(iter(structure.initial))
    while current not in seen:
        seen[current] = len(order)
        order.append(current)
        current = succ[current]
    start = seen[current]
    return LassoTrace(tuple(order[:start]), tuple(order[start:]))


# --------------------------------------------------------------------------
# Specification files
# --------------------------------------------------------------------------

def load_specifications(path: str | Path, vocab: Vocabulary | None = None) -> list[tuple[str, LtlFormula]]:
    """Read a specification file: one ``name: formula`` per line, ``#`` comments."""
    pairs: list[tuple[str, LtlFormula]] = []
    names: set[str] = set()
    with numbered_lines(path) as lines:
        for raw in lines:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            name, sep, text = line.partition(":")
            name = name.strip()
            if not sep or not name:
                raise ValueError("expected 'name: formula'")
            if name in names:
                raise ValueError(f"duplicate specification name {name!r}")
            names.add(name)
            pairs.append((name, parse_formula(text, vocab)))
    return pairs
