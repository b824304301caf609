"""LTL model checking of Kripke structures with counterexample extraction.

The pipeline is the classic automata-theoretic one, explicit-state throughout:
negate the formula, translate to a Büchi automaton via the declarative tableau
over the formula closure (generalized acceptance, degeneralized with a counter),
form the synchronous product with the structure, and decide emptiness by nested
depth-first search.  Structures produced by the plan encoder are tiny chains,
so generality is worth more here than symbolic scale.

``check`` always takes that automaton path.  ``check_all``, which verifies a
plan against a rule set, takes it only for branching structures: on a
structure with a single lasso it evaluates each formula bit-parallel over the
lasso's positions, and a failing formula's counterexample is the lasso itself.

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


@dataclass(frozen=True)
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


def _elementary(formula: LtlFormula) -> list[LtlFormula]:
    """Atoms and temporal subformulas in preorder; these determine a tableau state."""
    return [f for f in subformulas(formula) if isinstance(f, (Atom, *_TEMPORAL))]


class _Tableau:
    """States are truth assignments over the elementary subformulas."""

    def __init__(self, formula: LtlFormula):
        self.formula = formula
        self.elementary = _elementary(formula)
        self.bit = {f: i for i, f in enumerate(self.elementary)}
        self.atom_bits = [i for i, f in enumerate(self.elementary) if isinstance(f, Atom)]
        self.temporals = [f for f in self.elementary if isinstance(f, _TEMPORAL)]
        self._ev_cache: dict[tuple[LtlFormula, int], bool] = {}
        self.masks = [m for m in range(1 << len(self.elementary)) if self._locally_consistent(m)]
        self.initial = [m for m in self.masks if self.ev(formula, m)]
        self._restrict_reachable()

    def ev(self, node: LtlFormula, mask: int) -> bool:
        bit = self.bit.get(node)
        if bit is not None:
            return bool(mask >> bit & 1)
        key = (node, mask)
        cached = self._ev_cache.get(key)
        if cached is not None:
            return cached
        if isinstance(node, TrueFormula):
            value = True
        elif isinstance(node, FalseFormula):
            value = False
        elif isinstance(node, Not):
            value = not self.ev(node.operand, mask)
        elif isinstance(node, And):
            value = self.ev(node.left, mask) and self.ev(node.right, mask)
        elif isinstance(node, Or):
            value = self.ev(node.left, mask) or self.ev(node.right, mask)
        elif isinstance(node, Implies):
            value = (not self.ev(node.left, mask)) or self.ev(node.right, mask)
        else:
            raise TypeError(f"not a formula node: {node!r}")
        self._ev_cache[key] = value
        return value

    def _locally_consistent(self, mask: int) -> bool:
        # Obligations implied by the fixpoint expansions that do not mention
        # the successor state.
        for t in self.temporals:
            held = bool(mask >> self.bit[t] & 1)
            if isinstance(t, Until):
                if held and not (self.ev(t.right, mask) or self.ev(t.left, mask)):
                    return False
                if not held and self.ev(t.right, mask):
                    return False
            elif isinstance(t, Always):
                if held and not self.ev(t.operand, mask):
                    return False
            elif isinstance(t, Eventually):
                if not held and self.ev(t.operand, mask):
                    return False
        return True

    def successors(self, mask: int) -> list[int]:
        out = []
        for other in self.masks:
            if self._edge(mask, other):
                out.append(other)
        return out

    def _edge(self, src: int, dst: int) -> bool:
        for t in self.temporals:
            held = bool(src >> self.bit[t] & 1)
            if isinstance(t, Next):
                if held != self.ev(t.operand, dst):
                    return False
            elif isinstance(t, Until):
                expect = self.ev(t.right, src) or (
                    self.ev(t.left, src) and bool(dst >> self.bit[t] & 1)
                )
                if held != expect:
                    return False
            elif isinstance(t, Always):
                if held != (self.ev(t.operand, src) and bool(dst >> self.bit[t] & 1)):
                    return False
            elif isinstance(t, Eventually):
                if held != (self.ev(t.operand, src) or bool(dst >> self.bit[t] & 1)):
                    return False
        return True

    def _restrict_reachable(self) -> None:
        reachable: set[int] = set()
        frontier = list(self.initial)
        edges: dict[int, list[int]] = {}
        while frontier:
            mask = frontier.pop()
            if mask in reachable:
                continue
            reachable.add(mask)
            edges[mask] = self.successors(mask)
            frontier.extend(edges[mask])
        self.masks = [m for m in self.masks if m in reachable]
        self.edges = {m: [d for d in edges[m] if d in reachable] for m in self.masks}

    def acceptance_sets(self) -> list[set[int]]:
        # One set per Until/Eventually, in subformula order: states where the
        # obligation is absent or already discharged.
        sets = []
        for t in self.temporals:
            if isinstance(t, Until):
                goal = t.right
            elif isinstance(t, Eventually):
                goal = t.operand
            else:
                continue
            sets.append(
                {
                    m
                    for m in self.masks
                    if not (m >> self.bit[t] & 1) or self.ev(goal, m)
                }
            )
        return sets

    def guard(self, mask: int) -> Guard:
        required = frozenset(
            f.name for f in self.elementary if isinstance(f, Atom) and mask >> self.bit[f] & 1
        )
        forbidden = frozenset(
            f.name
            for f in self.elementary
            if isinstance(f, Atom) and not (mask >> self.bit[f] & 1)
        )
        return Guard(required, forbidden)


@lru_cache(maxsize=512)
def _automaton_for(formula: LtlFormula) -> BuchiAutomaton:
    tableau = _Tableau(formula)
    accept_sets = tableau.acceptance_sets()
    levels = max(1, len(accept_sets))

    # Degeneralize: counter advances past level i when the tableau state is in
    # acceptance set i; a run is accepting iff the counter cycles forever.
    def advance(mask: int, level: int) -> int:
        if accept_sets and mask in accept_sets[level]:
            return (level + 1) % levels
        return level

    nodes: list[tuple[int, int]] = []
    index: dict[tuple[int, int], int] = {}
    frontier = [(m, 0) for m in tableau.initial]
    for node in frontier:
        if node not in index:
            index[node] = len(nodes)
            nodes.append(node)
    pos = 0
    edges: list[tuple[int, int]] = []
    while pos < len(nodes):
        mask, level = nodes[pos]
        nxt_level = advance(mask, level)
        for dst_mask in tableau.edges.get(mask, []):
            target = (dst_mask, nxt_level)
            if target not in index:
                index[target] = len(nodes)
                nodes.append(target)
            edges.append((pos, index[target]))
        pos += 1

    closure_size = len(subformulas(formula))
    assert len(nodes) + 1 <= 2 ** (2 * closure_size) + 1

    def name(i: int) -> str:
        return f"b{i + 1}"

    states = ("b0",) + tuple(name(i) for i in range(len(nodes)))
    transitions: list[tuple[str, Guard, str]] = []
    for m in tableau.initial:
        node = (m, 0)
        transitions.append(("b0", tableau.guard(m), name(index[node])))
    for src, dst in edges:
        transitions.append((name(src), tableau.guard(nodes[dst][0]), name(dst)))
    if accept_sets:
        accepting = frozenset(
            name(i) for i, (mask, level) in enumerate(nodes) if level == 0 and mask in accept_sets[0]
        )
    else:
        accepting = frozenset(name(i) for i in range(len(nodes)))
    return BuchiAutomaton(states, frozenset({"b0"}), accepting, tuple(transitions))


def ltl_to_buchi(formula: LtlFormula) -> BuchiAutomaton:
    """Translate an NNF formula to a Büchi automaton over symbolic letters."""
    if not is_nnf(formula):
        raise NotNegationNormalError(
            f"formula is not in negation normal form: {format_formula(formula)}"
        )
    return _automaton_for(formula)


# --------------------------------------------------------------------------
# Product and emptiness (nested DFS)
# --------------------------------------------------------------------------

def _find_accepting_lasso(
    structure: KripkeStructure, automaton: BuchiAutomaton
) -> tuple[list[str], list[str]] | None:
    """Accepting lasso of the synchronous product, projected to structure states."""
    label = {s: frozenset(structure.labeling[s]) for s in structure.states}
    struct_succ = structure.successor_map()
    aut_out: dict[str, list[tuple[Guard, str]]] = {s: [] for s in automaton.states}
    for src, guard, dst in automaton.transitions:
        aut_out[src].append((guard, dst))
    state_order = {s: i for i, s in enumerate(structure.states)}

    roots = []
    seen_roots = set()
    for s in sorted(structure.initial, key=state_order.__getitem__):
        for init in sorted(automaton.initial):
            for guard, q in aut_out[init]:
                if guard.admits(label[s]) and (s, q) not in seen_roots:
                    seen_roots.add((s, q))
                    roots.append((s, q))

    def succs(node: tuple[str, str]):
        s, q = node
        for s2 in struct_succ[s]:
            for guard, q2 in aut_out[q]:
                if guard.admits(label[s2]):
                    yield (s2, q2)

    accepting = automaton.accepting
    cyan: dict[tuple[str, str], int] = {}
    blue: set[tuple[str, str]] = set()
    red: set[tuple[str, str]] = set()
    path: list[tuple[str, str]] = []

    def red_dfs(seed):
        red.add(seed)
        rstack = [(seed, succs(seed))]
        rpath = [seed]
        while rstack:
            node, it = rstack[-1]
            advanced = False
            for nxt in it:
                if nxt in cyan:
                    return rpath[:], nxt
                if nxt not in red:
                    red.add(nxt)
                    rstack.append((nxt, succs(nxt)))
                    rpath.append(nxt)
                    advanced = True
                    break
            if not advanced:
                rstack.pop()
                rpath.pop()
        return None

    for root in roots:
        if root in blue:
            continue
        cyan[root] = 0
        path.append(root)
        stack = [(root, succs(root))]
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if nxt not in cyan and nxt not in blue:
                    cyan[nxt] = len(path)
                    path.append(nxt)
                    stack.append((nxt, succs(nxt)))
                    advanced = True
                    break
            if not advanced:
                if node[1] in accepting:
                    found = red_dfs(node)
                    if found is not None:
                        rpath, target = found
                        idx = cyan[target]
                        prefix_nodes = path[:idx]
                        cycle_nodes = path[idx:] + rpath[1:]
                        prefix = [n[0] for n in prefix_nodes]
                        cycle = [n[0] for n in cycle_nodes]
                        return _normalize_lasso(prefix, cycle)
                stack.pop()
                path.pop()
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
    letters = [frozenset(l) for l in prefix_letters] + [frozenset(l) for l in cycle_letters]
    states = tuple(f"w{i}" for i in range(len(letters)))
    loop = len(prefix_letters)
    transitions = {(states[i], states[i + 1]) for i in range(len(states) - 1)}
    transitions.add((states[-1], states[loop]))
    word = KripkeStructure(
        states,
        frozenset({states[0]}),
        frozenset(transitions),
        {states[i]: letters[i] for i in range(len(states))},
    )
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
    and each formula is evaluated on that lasso; the verdicts and
    counterexamples equal those of ``check``.  Any other structure goes
    through ``check`` formula by formula.
    """
    spec_list = list(specs)
    if not spec_list:
        return []
    structure.validate()
    try:
        lasso = single_path(structure)
    except NondeterministicStructureError:
        return [(spec_name, check(structure, formula, spec_name)) for spec_name, formula in spec_list]
    evaluator = _LassoEvaluator(lasso, structure.labeling)
    results = []
    for spec_name, formula in spec_list:
        holds = bool(evaluator.mask(formula) & 1)
        verdict = Verdict(holds, formula, spec_name, None if holds else lasso)
        results.append((spec_name, verdict))
    return results


# --------------------------------------------------------------------------
# Lasso evaluation
# --------------------------------------------------------------------------

class _LassoEvaluator:
    """LTL on one lasso with every position at once: bit i of a mask is
    position i of prefix + cycle, and the last position's successor is the
    first cycle position."""

    def __init__(self, lasso: LassoTrace, labeling):
        positions = lasso.positions()
        self.last = len(positions) - 1
        self.loop = len(lasso.prefix)
        self.full = (1 << len(positions)) - 1
        self.cycle = self.full ^ ((1 << self.loop) - 1)
        atoms: dict[str, int] = {}
        for i, state in enumerate(positions):
            for name in labeling[state]:
                atoms[name] = atoms.get(name, 0) | 1 << i
        self.atoms = atoms

    def next(self, v: int) -> int:
        return v >> 1 | (v >> self.loop & 1) << self.last

    def eventually(self, v: int) -> int:
        # A cycle hit is reachable from everywhere; otherwise only prefix
        # positions at or before the last hit see one.
        if v & self.cycle:
            return self.full
        return (1 << v.bit_length()) - 1

    def mask(self, node: LtlFormula) -> int:
        if isinstance(node, Atom):
            return self.atoms.get(node.name, 0)
        if isinstance(node, Not):
            return self.full ^ self.mask(node.operand)
        if isinstance(node, And):
            return self.mask(node.left) & self.mask(node.right)
        if isinstance(node, Or):
            return self.mask(node.left) | self.mask(node.right)
        if isinstance(node, Implies):
            return (self.full ^ self.mask(node.left)) | self.mask(node.right)
        if isinstance(node, Always):
            return self.full ^ self.eventually(self.full ^ self.mask(node.operand))
        if isinstance(node, Eventually):
            return self.eventually(self.mask(node.operand))
        if isinstance(node, Next):
            return self.next(self.mask(node.operand))
        if isinstance(node, Until):
            left, right = self.mask(node.left), self.mask(node.right)
            result = right
            while True:
                grown = right | left & self.next(result)
                if grown == result:
                    return result
                result = grown
        if isinstance(node, TrueFormula):
            return self.full
        if isinstance(node, FalseFormula):
            return 0
        raise TypeError(f"not a formula node: {node!r}")


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
