"""LTL model checking of Kripke structures with counterexample extraction.

The pipeline is the classic automata-theoretic one, explicit-state throughout:
negate the formula, translate to a Büchi automaton via the declarative tableau
over the formula closure (generalized acceptance, degeneralized with a counter),
form the synchronous product with the structure, and decide emptiness by nested
depth-first search.  Structures produced by the plan encoder are tiny chains,
so generality is worth more here than symbolic scale.

``check`` always takes that automaton path.  ``check_all``, which verifies a
plan against a rule set, takes it only for branching structures: on a
structure with a single lasso it runs each formula, compiled once, over all
positions of the lasso at once; a failing formula's counterexample is the lasso.

Also houses the two text emitters: NuSMV-style counterexample traces
(delta-encoded state blocks) and complete SMV modules for external checking.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .logic import (
    Always,
    And,
    Atom,
    Eventually,
    FalseFormula,
    Implies,
    KripkeStructure,
    LassoTrace,
    LtlFormula,
    Next,
    NondeterministicStructureError,
    Not,
    Or,
    TrueFormula,
    Until,
    atoms_of,
    children,
    format_formula,
    is_nnf,
    nnf,
    single_path,
    subformulas,
)


class NotNegationNormalError(ValueError):
    """Translation input must be in negation normal form."""


class NotACounterexampleError(ValueError):
    """Asked to format a verdict that holds."""


class TableauTooLargeError(ValueError):
    """Formula has more elementary subformulas than translation allows."""


# Translation time and memory grow exponentially in the elementary
# subformulas: 16 translate in ~0.02 s, 20 in ~2 s.
MAX_ELEMENTARY = 20


@dataclass(frozen=True)
class Guard:
    """Symbolic letter on an automaton edge: propositions required/forbidden."""

    required: frozenset[str]
    forbidden: frozenset[str]

    def __post_init__(self):
        if self.required & self.forbidden:
            raise ValueError("guard requires and forbids the same proposition")

    def admits(self, labels: frozenset[str]) -> bool:
        return self.required <= labels and not (self.forbidden & labels)


@dataclass(frozen=True, eq=False)
class BuchiAutomaton:
    states: tuple[str, ...]
    initial: frozenset[str]
    accepting: frozenset[str]
    transitions: tuple[tuple[str, Guard, str], ...]


@dataclass(frozen=True)
class Verdict:
    """Model-checking outcome; a failing verdict carries a lasso counterexample."""

    holds: bool
    formula: LtlFormula
    name: str | None = None
    counterexample: LassoTrace | None = None


# --------------------------------------------------------------------------
# Tableau translation
# --------------------------------------------------------------------------

_TEMPORAL = (Next, Until, Always, Eventually)


def _bits(s: int) -> list[int]:
    """Positions of the set bits of ``s``, ascending."""
    out = []
    while s:
        low = s & -s
        out.append(low.bit_length() - 1)
        s ^= low
    return out


class _Tableau:
    """States are truth assignments (masks) over the elementary subformulas,
    the atoms and temporal subformulas in preorder.

    Each subformula is held as its truth table over all masks: one int whose
    bit m is set iff the subformula holds at mask m.  The connectives are int
    operations on tables, and a set of masks is one int as well.
    """

    def __init__(self, formula: LtlFormula):
        closure = subformulas(formula)
        self.closure_size = len(closure)
        elementary = [f for f in closure if isinstance(f, (Atom, *_TEMPORAL))]
        if len(elementary) > MAX_ELEMENTARY:
            raise TableauTooLargeError(f"formula {format_formula(formula)!r} has {len(elementary)} "
                                       f"elementary subformulas; at most {MAX_ELEMENTARY} translate")
        width = 1 << len(elementary)
        full = self.full = (1 << width) - 1
        # Bit i of the mask, over all masks: runs of 2^i zeros then 2^i ones.
        self.tables: dict[LtlFormula, int] = {
            f: ((1 << (2 << i)) - (1 << (1 << i))) * (full // ((1 << (2 << i)) - 1))
            for i, f in enumerate(elementary)
        }
        self.atoms = [(i, f.name) for i, f in enumerate(elementary) if isinstance(f, Atom)]
        self.atom_bits = sum(1 << i for i, _ in self.atoms)
        self._guards: dict[int, Guard] = {}
        # ``bad``: masks that break an obligation of a fixpoint expansion that
        # does not mention the successor.  ``steps``, one per temporal: at the
        # source masks in ``opened`` the expansion leaves it to the successor,
        # which must then agree on ``column`` with the source's own bit.
        self.steps: list[tuple[int, int, int, int]] = []
        # One acceptance set per Until/Eventually, in subformula order: masks
        # where the obligation is absent or already discharged.
        self.acceptance: list[int] = []
        bad = 0
        for bit, t in enumerate(elementary):
            if not isinstance(t, _TEMPORAL):
                continue
            held = self.tables[t]
            if isinstance(t, Next):
                opened, column = full, self.table(t.operand)
            elif isinstance(t, Until):
                left, right = self.table(t.left), self.table(t.right)
                bad |= held & ~(left | right) | ~held & right
                opened, column = left & ~right, held
                self.acceptance.append(full & ~held | right)
            else:
                operand = self.table(t.operand)
                if isinstance(t, Always):
                    bad |= held & ~operand
                    opened, column = operand, held
                else:
                    bad |= ~held & operand
                    opened, column = full & ~operand, held
                    self.acceptance.append(full & ~held | operand)
            self.steps.append((bit, opened, column, full & ~column))
        self.consistent = full & ~bad
        self.initial = _bits(self.consistent & self.table(formula))

    def table(self, node: LtlFormula) -> int:
        value = self.tables.get(node)
        if value is None:
            if isinstance(node, TrueFormula):
                value = self.full
            elif isinstance(node, FalseFormula):
                value = 0
            elif isinstance(node, Not):
                value = self.full & ~self.table(node.operand)
            elif isinstance(node, And):
                value = self.table(node.left) & self.table(node.right)
            elif isinstance(node, Or):
                value = self.table(node.left) | self.table(node.right)
            else:
                raise TypeError(f"not a formula node: {node!r}")
            self.tables[node] = value
        return value

    def successors(self, mask: int) -> int:
        """The set of successor masks of ``mask``."""
        succ = self.consistent
        for bit, opened, column, complement in self.steps:
            if opened >> mask & 1:
                succ &= column if mask >> bit & 1 else complement
        return succ

    def guard(self, mask: int) -> Guard:
        key = mask & self.atom_bits
        guard = self._guards.get(key)
        if guard is None:
            guard = self._guards[key] = Guard(
                frozenset(name for i, name in self.atoms if key >> i & 1),
                frozenset(name for i, name in self.atoms if not key >> i & 1),
            )
        return guard


def ltl_to_buchi(formula: LtlFormula) -> BuchiAutomaton:
    """Translate an NNF formula to a Büchi automaton over symbolic letters."""
    if not is_nnf(formula):
        raise NotNegationNormalError(
            f"formula is not in negation normal form: {format_formula(formula)}"
        )
    tableau = _Tableau(formula)
    accept = tableau.acceptance
    levels = max(1, len(accept))

    # Degeneralize: a node is (mask, level), keyed mask * levels + level; the
    # counter advances past level i when the mask is in acceptance set i, and
    # a run is accepting iff the counter cycles forever.  Nodes are numbered
    # in breadth-first order, successors in ascending mask order.
    nodes: list[int] = []
    names: list[str] = []
    index: dict[int, int] = {}
    transitions: list[tuple[str, Guard, str]] = []

    def target(key: int) -> str:
        i = index.get(key)
        if i is None:
            i = index[key] = len(nodes)
            nodes.append(key)
            names.append(f"b{i + 1}")
        return names[i]

    for mask in tableau.initial:
        transitions.append(("b0", tableau.guard(mask), target(mask * levels)))
    # Masks with the same successor set and next level share their (guard,
    # name) tails; the first visit numbers any new targets in order.
    tails: dict[tuple[int, int], list[tuple[Guard, str]]] = {}
    pos = 0
    while pos < len(nodes):
        mask, level = divmod(nodes[pos], levels)
        if accept and accept[level] >> mask & 1:
            level = (level + 1) % levels
        succ = tableau.successors(mask)
        tail = tails.get((succ, level))
        if tail is None:
            tail = tails[succ, level] = [
                (tableau.guard(dst), target(dst * levels + level)) for dst in _bits(succ)
            ]
        src = names[pos]
        transitions.extend([(src, guard, dst) for guard, dst in tail])
        pos += 1

    assert len(nodes) + 1 <= 2 ** (2 * tableau.closure_size) + 1
    if accept:
        accepting = frozenset(
            names[i] for i, key in enumerate(nodes) if key % levels == 0 and accept[0] >> key // levels & 1
        )
    else:
        accepting = frozenset(names)
    return BuchiAutomaton(("b0", *names), frozenset({"b0"}), accepting, tuple(transitions))


# --------------------------------------------------------------------------
# Product and emptiness (nested DFS)
# --------------------------------------------------------------------------

def _find_accepting_lasso(
    structure: KripkeStructure, automaton: BuchiAutomaton
) -> tuple[list[str], list[str]] | None:
    """Accepting lasso of the synchronous product, projected to structure states."""
    label = {s: frozenset(structure.labeling[s]) for s in structure.states}
    struct_succ = structure.successor_map()
    aut_out: dict[str, list[tuple[str, Guard, str]]] = {q: [] for q in automaton.states}
    for transition in automaton.transitions:
        aut_out[transition[0]].append(transition)
    state_order = {s: i for i, s in enumerate(structure.states)}

    roots = dict.fromkeys(
        (s, q)
        for s in sorted(structure.initial, key=state_order.__getitem__)
        for init in sorted(automaton.initial)
        for _, guard, q in aut_out[init]
        if guard.admits(label[s])
    )

    def succs(node: tuple[str, str]):
        s, q = node
        for s2 in struct_succ[s]:
            for _, guard, q2 in aut_out[q]:
                if guard.admits(label[s2]):
                    yield (s2, q2)

    accepting = automaton.accepting
    cyan: dict[tuple[str, str], int] = {}
    blue: set[tuple[str, str]] = set()
    red: set[tuple[str, str]] = set()

    def red_dfs(seed):
        red.add(seed)
        rstack = [(seed, succs(seed))]
        while rstack:
            for nxt in rstack[-1][1]:
                if nxt in cyan:
                    return [n for n, _ in rstack], nxt
                if nxt not in red:
                    red.add(nxt)
                    rstack.append((nxt, succs(nxt)))
                    break
            else:
                rstack.pop()
        return None

    for root in roots:
        if root in blue:
            continue
        cyan[root] = 0
        stack = [(root, succs(root))]
        while stack:
            node, it = stack[-1]
            for nxt in it:
                if nxt not in cyan and nxt not in blue:
                    cyan[nxt] = len(stack)
                    stack.append((nxt, succs(nxt)))
                    break
            else:
                if node[1] in accepting:
                    found = red_dfs(node)
                    if found is not None:
                        rpath, target = found
                        path = [n[0] for n, _ in stack] + [n[0] for n in rpath[1:]]
                        return _normalize_lasso(path[: cyan[target]], path[cyan[target] :])
                stack.pop()
                del cyan[node]
                blue.add(node)
    return None


def _normalize_lasso(prefix: list[str], cycle: list[str]) -> tuple[list[str], list[str]]:
    """Canonical decomposition: primitive cycle, shortest prefix, same word."""
    for period in range(1, len(cycle) + 1):
        if len(cycle) % period == 0 and cycle == cycle[:period] * (len(cycle) // period):
            cycle = cycle[:period]
            break
    prefix = list(prefix)
    while prefix and prefix[-1] == cycle[-1]:
        cycle = [cycle[-1]] + cycle[:-1]
        prefix.pop()
    return prefix, cycle


def lasso_word_accepted(
    automaton: BuchiAutomaton,
    prefix_letters: Sequence[Iterable[str]],
    cycle_letters: Sequence[Iterable[str]],
) -> bool:
    """Membership of the ultimately periodic word in the automaton's language."""
    if not cycle_letters:
        raise ValueError("cycle must be nonempty")
    letters = [*map(frozenset, prefix_letters), *map(frozenset, cycle_letters)]
    states = tuple(f"w{i}" for i in range(len(letters)))
    transitions = frozenset([*zip(states, states[1:]), (states[-1], states[len(prefix_letters)])])
    word = KripkeStructure(states, frozenset({states[0]}), transitions, dict(zip(states, letters)))
    return _find_accepting_lasso(word, automaton) is not None


# --------------------------------------------------------------------------
# Checking
# --------------------------------------------------------------------------

def check(structure: KripkeStructure, formula: LtlFormula, name: str | None = None) -> Verdict:
    """Does every infinite path from every initial state satisfy the formula?"""
    structure.validate()
    negated = nnf(Not(formula))
    automaton = ltl_to_buchi(negated)
    found = _find_accepting_lasso(structure, automaton)
    if found is None:
        return Verdict(holds=True, formula=formula, name=name)
    prefix, cycle = found
    return Verdict(
        holds=False,
        formula=formula,
        name=name,
        counterexample=LassoTrace(tuple(prefix), tuple(cycle)),
    )


def check_all(
    structure: KripkeStructure, specs: Iterable[tuple[str, LtlFormula]]
) -> list[tuple[str, Verdict]]:
    """Check each named specification in order.

    A structure with a single lasso (every encoder chain) is validated once
    and each formula, compiled once per formula, is evaluated on that
    lasso; the verdicts and counterexamples equal those of ``check``.  Any
    other structure goes through ``check`` formula by formula.
    """
    spec_list = list(specs)
    if not spec_list:
        return []
    structure.validate()
    try:
        lasso = _lasso(structure.states, structure.initial, structure.transitions)
    except NondeterministicStructureError:
        return [(spec_name, check(structure, formula, spec_name)) for spec_name, formula in spec_list]
    atoms: dict[str, int] = {}
    for i, state in enumerate(lasso.positions):
        for name in structure.labeling[state]:
            atoms[name] = atoms.get(name, 0) | 1 << i
    results = []
    for spec_name, formula in spec_list:
        holds = bool(_compile(formula)(atoms, lasso) & 1)
        results.append((spec_name, Verdict(holds, formula, spec_name, None if holds else lasso.trace)))
    return results


# --------------------------------------------------------------------------
# Lasso evaluation
# --------------------------------------------------------------------------

class _Lasso:
    """The lasso of a single-path structure, every position at once: bit i of
    a mask is position i of prefix + cycle, and the last position's successor
    is the first cycle position."""

    __slots__ = ("trace", "positions", "last", "loop", "full", "cycle")

    def __init__(self, states, initial, transitions):
        self.trace = single_path(KripkeStructure(states, initial, transitions, {}))
        self.positions = self.trace.positions()
        self.last = len(self.positions) - 1
        self.loop = len(self.trace.prefix)
        self.full = (1 << len(self.positions)) - 1
        self.cycle = self.full ^ ((1 << self.loop) - 1)

    def next(self, v: int) -> int:
        return v >> 1 | (v >> self.loop & 1) << self.last

    def eventually(self, v: int) -> int:
        # A cycle hit is reachable from everywhere; otherwise only prefix
        # positions at or before the last hit see one.
        if v & self.cycle:
            return self.full
        return (1 << v.bit_length()) - 1

    def until(self, left: int, right: int) -> int:
        result, grown = None, right
        while grown != result:
            result, grown = grown, right | left & self.next(grown)
        return result


# Encoder chains of one length share their states, initial set and
# transitions, so they share one lasso.
_lasso = lru_cache(maxsize=256)(_Lasso)


# Closure makers: from the closures of a node's operands, one from (atom
# masks, lasso) to the node's position mask.
_CLOSURES = {
    TrueFormula: lambda: lambda atoms, lasso: lasso.full,
    FalseFormula: lambda: lambda atoms, lasso: 0,
    Not: lambda f: lambda atoms, lasso: lasso.full ^ f(atoms, lasso),
    Next: lambda f: lambda atoms, lasso: lasso.next(f(atoms, lasso)),
    Always: lambda f: lambda atoms, lasso: lasso.full ^ lasso.eventually(lasso.full ^ f(atoms, lasso)),
    Eventually: lambda f: lambda atoms, lasso: lasso.eventually(f(atoms, lasso)),
    And: lambda f, g: lambda atoms, lasso: f(atoms, lasso) & g(atoms, lasso),
    Or: lambda f, g: lambda atoms, lasso: f(atoms, lasso) | g(atoms, lasso),
    Implies: lambda f, g: lambda atoms, lasso: lasso.full ^ f(atoms, lasso) | g(atoms, lasso),
    Until: lambda f, g: lambda atoms, lasso: lasso.until(f(atoms, lasso), g(atoms, lasso)),
}


@lru_cache(maxsize=1024)
def _compile(formula: LtlFormula):
    """The formula as one closure from (atom masks, lasso) to its position mask."""

    def build(node: LtlFormula):
        if isinstance(node, Atom):
            name = node.name
            return lambda atoms, lasso: atoms.get(name, 0)
        make = _CLOSURES.get(type(node))
        if make is None:
            raise TypeError(f"not a formula node: {node!r}")
        return make(*map(build, children(node)))

    return build(formula)


# --------------------------------------------------------------------------
# Text emitters
# --------------------------------------------------------------------------

def format_counterexample(verdict: Verdict, structure: KripkeStructure) -> str:
    """NuSMV-style trace text with delta-encoded state blocks.

    The first block lists every proposition; later blocks only those whose
    truth changed.  ``-- Loop starts here`` precedes the first cycle state.
    """
    if verdict.holds or verdict.counterexample is None:
        raise NotACounterexampleError("verdict holds; nothing to format")
    trace = verdict.counterexample
    props = sorted(
        set().union(*(structure.labeling[s] for s in structure.states)) | atoms_of(verdict.formula)
    )
    lines = [
        f"-- specification {format_formula(verdict.formula, smv_literals=True)} is false",
        "Trace Description: LTL Counterexample",
        "Trace Type: Counterexample",
    ]
    previous: dict[str, bool] | None = None
    for k, state in enumerate(trace.positions(), start=1):
        if k == len(trace.prefix) + 1:
            lines.append("  -- Loop starts here")
        lines.append(f"  -> State: 1.{k} <-")
        lines.append(f"    state = {state}")
        valuation = {p: p in structure.labeling[state] for p in props}
        for p in props:
            if previous is None or previous[p] != valuation[p]:
                lines.append(f"    {p} = {'TRUE' if valuation[p] else 'FALSE'}")
        previous = valuation
    return "\n".join(lines) + "\n"


def export_smv(structure: KripkeStructure, specs: Iterable[tuple[str, LtlFormula]] = ()) -> str:
    """Complete ``MODULE main`` SMV program for the structure and specifications.

    One enumerated ``state`` variable drives everything; each proposition is a
    DEFINEd predicate (a disjunction of the states labeling it) rather than an
    independent boolean VAR, which is faithful because the encoder's labeling
    is a function of the state and preserves every LTLSPEC verdict.  Output is
    byte-deterministic for a given input.
    """
    structure.validate()
    spec_list = list(specs)
    order = {s: i for i, s in enumerate(structure.states)}
    props = sorted(
        set().union(*(structure.labeling[s] for s in structure.states))
        | set().union(frozenset(), *(atoms_of(f) for _, f in spec_list))
    )
    succ = structure.successor_map()

    def state_set(names: Iterable[str]) -> str:
        ordered = sorted(names, key=order.__getitem__)
        if len(ordered) == 1:
            return ordered[0]
        return "{" + ", ".join(ordered) + "}"

    lines = [
        "MODULE main",
        "VAR",
        "  state : {" + ", ".join(structure.states) + "};",
        "ASSIGN",
        f"  init(state) := {state_set(structure.initial)};",
    ]
    if len(structure.states) == 1:
        only = structure.states[0]
        lines.append(f"  next(state) := {state_set(succ[only])};")
    else:
        lines.append("  next(state) :=")
        lines.append("    case")
        for state in structure.states:
            lines.append(f"      state = {state} : {state_set(succ[state])};")
        lines.append("    esac;")
    if props:
        lines.append("DEFINE")
        for p in props:
            holders = [s for s in structure.states if p in structure.labeling[s]]
            expr = " | ".join(f"state = {s}" for s in holders) if holders else "FALSE"
            lines.append(f"  {p} := {expr};")
    for spec_name, formula in spec_list:
        lines.append(f"-- {spec_name}")
        lines.append(f"LTLSPEC {format_formula(formula, smv_literals=True)}")
    return "\n".join(lines) + "\n"
