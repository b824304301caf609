"""Encode generated plan text into a linear Kripke structure.

A plan is split into step phrases, each phrase is scanned for vocabulary
surface forms (longest match first), and the result becomes a chain

    q0 -> q1 -> ... -> qN -> q_done -> q_done ...

where q0 is labeled with the observed objects that name propositions, qi with
phrase i's matches, and q_done with nothing.  A rule-based lexicon matcher
stands in for learned parsing: plan texts in this pipeline are produced under
a constrained phrase set, so a curated alias table is both faithful and
deterministic.

Negation handling: a cue (``no``, ``not``, ``never``, ``without``, ``*n't``)
within the window of tokens preceding a match suppresses that match.  The
window never crosses a clause boundary (comma, semicolon, colon), so in
"there is no stop sign, move forward" the cue scopes over ``stop sign`` only.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

from .logic import KripkeStructure, Vocabulary

NEGATION_CUES = frozenset({"no", "not", "never", "without"})
DEFAULT_NEGATION_WINDOW = 3

_STEP_MARKER = re.compile(r"(?m)(?:^[ \t]*|(?<=[.!?])\s+)\d+\.[ \t]+")
_SENTENCE_SPLIT = re.compile(r"(?<=[.!?])\s+")
_CLAUSE_SPLIT = re.compile(r"[,;:]")
_WORD = re.compile(r"[a-z0-9']+")


class EmptyPlanError(ValueError):
    """Plan text is empty after trimming."""


class NoPhrasesError(ValueError):
    """Splitting the plan text produced no phrases."""


@dataclass(frozen=True)
class Phrase:
    """One plan step: 1-based index, source text, matched proposition ids in match order."""

    index: int
    raw: str
    matched: tuple[str, ...]


def _split_segments(raw: str) -> list[str]:
    if _STEP_MARKER.search(raw):
        parts = _STEP_MARKER.split(raw)
    else:
        parts = _SENTENCE_SPLIT.split(raw)
    return [p.strip() for p in parts if _WORD.search(p.lower())]


def _tokenize_clauses(text: str) -> tuple[list[str], list[int], list[bool]]:
    """Normalized tokens with their clause index and negation-cue flag."""
    words: list[str] = []
    clauses: list[int] = []
    negation: list[bool] = []
    for clause_idx, segment in enumerate(_CLAUSE_SPLIT.split(text.lower())):
        tokens = _WORD.findall(segment)
        negation += [token in NEGATION_CUES or token.endswith("n't") for token in tokens]
        words += [token.replace("'", "") for token in tokens]
        clauses += [clause_idx] * len(tokens)
    return words, clauses, negation


def parse_phrases(
    plan: str, vocab: Vocabulary, negation_window: int = DEFAULT_NEGATION_WINDOW
) -> list[Phrase]:
    """Split a plan into phrases and match each against the vocabulary.

    Phrases break at numbered-step markers (``1.``, ``2.`` ... at line starts
    or after a sentence end) or, absent numbering, at sentence terminators.
    Matches are resolved left-to-right, longest first, and consumed.
    """
    if not plan.strip():
        raise EmptyPlanError("plan text is empty")
    segments = _split_segments(plan)
    if not segments:
        raise NoPhrasesError("plan text yields no phrases")
    phrases = []
    for index, segment in enumerate(segments, start=1):
        words, clauses, negation = _tokenize_clauses(segment)
        matched: list[str] = []
        pos = 0
        while pos < len(words):
            hit = None
            for length in vocab.surface_starts.get(words[pos], ()):
                end = pos + length
                if end > len(words) or clauses[end - 1] != clauses[pos]:
                    continue
                pid = vocab.surface_table.get(tuple(words[pos:end]))
                if pid is not None:
                    hit = (length, pid)
                    break
            if hit is None:
                pos += 1
                continue
            length, pid = hit
            window = range(max(0, pos - negation_window), pos)
            suppressed = any(
                negation[j] for j in window if clauses[j] == clauses[pos]
            )
            if not suppressed and pid not in matched:
                matched.append(pid)
            pos += length
        phrases.append(Phrase(index, segment, tuple(matched)))
    return phrases


def encode(
    plan: str,
    vocab: Vocabulary,
    observed: Iterable[str],
    negation_window: int = DEFAULT_NEGATION_WINDOW,
) -> KripkeStructure:
    """Build the chain structure for a plan given the observed object labels.

    The initial state carries the observed objects that name propositions
    (unmapped objects drop out); the terminal ``q_done`` state self-loops with
    an empty label so every path is infinite.
    """
    phrases = parse_phrases(plan, vocab, negation_window)
    states = ["q0"] + [f"q{i}" for i in range(1, len(phrases) + 1)] + ["q_done"]
    labeling: dict[str, frozenset[str]] = {
        "q0": vocab.observed_propositions(observed),
        "q_done": frozenset(),
    }
    for phrase in phrases:
        labeling[f"q{phrase.index}"] = frozenset(phrase.matched)
    transitions = {(states[i], states[i + 1]) for i in range(len(states) - 1)}
    transitions.add(("q_done", "q_done"))
    return KripkeStructure(
        states=tuple(states),
        initial=frozenset({"q0"}),
        transitions=frozenset(transitions),
        labeling=labeling,
    )
