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
among the ``DEFAULT_NEGATION_WINDOW`` (3) tokens before a match suppresses
that match.  The window never crosses a clause boundary (comma, semicolon,
colon), so in "there is no stop sign, move forward" the cue scopes over
``stop sign`` only.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .logic import _WORD, KripkeStructure, Vocabulary

NEGATION_CUES = frozenset({"no", "not", "never", "without"})
DEFAULT_NEGATION_WINDOW = 3

_STEP_MARKER = re.compile(r"(?m)(?:^[ \t]*|(?<=[.!?])\s+)\d+\.[ \t]+")
_SENTENCE_SPLIT = re.compile(r"(?<=[.!?])\s+")
_CLAUSE_SPLIT = re.compile(r"[,;:]")
# Found in every clause that holds a cue token ("not" contains "no").
_CUE_SUBSTRING = re.compile(r"no|n't|never|without")


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
    parts = (_STEP_MARKER if _STEP_MARKER.search(raw) else _SENTENCE_SPLIT).split(raw)
    return [p.strip() for p in parts if _WORD.search(p.lower())]


def parse_phrases(plan: str, vocab: Vocabulary) -> list[Phrase]:
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
    starts, table = vocab.surface_starts, vocab.surface_table
    phrases = []
    for index, segment in enumerate(segments, start=1):
        matched: list[str] = []
        # Neither a surface nor a negation window crosses a clause.
        for clause in _CLAUSE_SPLIT.split(segment.lower()):
            tokens = _WORD.findall(clause)
            words = [t.replace("'", "") for t in tokens] if "'" in clause else tokens
            cued = _CUE_SUBSTRING.search(clause) is not None
            end = 0
            for pos in [i for i, word in enumerate(words) if word in starts]:
                if pos < end:
                    continue
                for length in starts[words[pos]]:
                    pid = table.get(tuple(words[pos : pos + length]))
                    if pid is not None and pos + length <= len(words):
                        break
                else:
                    continue
                end = pos + length
                if cued and any(
                    t in NEGATION_CUES or t.endswith("n't")
                    for t in tokens[max(0, pos - DEFAULT_NEGATION_WINDOW) : pos]
                ):
                    continue
                if pid not in matched:
                    matched.append(pid)
        phrases.append(Phrase(index, segment, tuple(matched)))
    return phrases


@lru_cache(maxsize=64)
def _chain(length: int) -> tuple[tuple[str, ...], frozenset[str], frozenset[tuple[str, str]]]:
    """States, initial states and transitions of the chain for ``length``
    phrases, shared by every plan of that length."""
    states = ("q0", *(f"q{i}" for i in range(1, length + 1)), "q_done")
    transitions = frozenset([*zip(states, states[1:]), ("q_done", "q_done")])
    return states, frozenset({"q0"}), transitions


def encode(plan: str, vocab: Vocabulary, observed: Iterable[str]) -> KripkeStructure:
    """Build the chain structure for a plan given the observed object labels.

    The initial state carries the observed objects that name propositions
    (unmapped objects drop out); the terminal ``q_done`` state self-loops with
    an empty label so every path is infinite.
    """
    phrases = parse_phrases(plan, vocab)
    states, initial, transitions = _chain(len(phrases))
    labeling: dict[str, frozenset[str]] = {
        "q0": vocab.observed_propositions(observed),
        "q_done": frozenset(),
    }
    for phrase in phrases:
        labeling[states[phrase.index]] = frozenset(phrase.matched)
    return KripkeStructure(states, initial, transitions, labeling)
