"""Spans recorded from outside the program, by timing shims.

A shim replaces a module-level name that a caller looks up (for example
``plancheck.fmdp.verify_plan``, which ``calibrate_decision`` calls) with a
wrapper that records one span per call: name, start, end, parent span, op id
and whether the call raised.  The run is single-threaded, so the current span
is one attribute.  Spans stay in memory and are written out when the run ends.
"""
from __future__ import annotations

import json
import math
import time
from statistics import median
from collections import defaultdict
from pathlib import Path

NAME, START, END, PARENT, OP, FAILED = range(6)

# Percentiles tried for a tail, highest first; the tail is the highest one
# that leaves at least TAIL_BEYOND samples above it.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)
TAIL_BEYOND = 10


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail(values: list[float]) -> tuple[str, float]:
    """(label, value) at the highest ladder percentile with TAIL_BEYOND samples
    beyond it; the maximum when there are too few samples for any."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_LADDER:
        if n - math.ceil(p / 100.0 * n) >= TAIL_BEYOND:
            return f"p{p:g}", percentile(ordered, p)
    return "max", ordered[-1]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.current: int | None = None
        self.op: int | None = None
        self.counts: dict[str, float] = defaultdict(float)
        self.automaton_states: list[int] = []
        self._installed: list = []

    def wrap(self, name: str, fn, observe=None):
        spans = self.spans

        def shim(*args, **kwargs):
            parent = self.current
            index = len(spans)
            spans.append(None)
            self.current = index
            failed = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = time.perf_counter()
                self.current = parent
                spans[index] = (name, start, end, parent, self.op, failed)
            if observe is not None:
                observe(self, result)
            return result

        shim.__wrapped__ = fn
        return shim

    def install(self, targets) -> None:
        """``targets``: (owner, attribute, span name, observe or None)."""
        for owner, attr, name, observe in targets:
            original = getattr(owner, attr)
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, observe))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _count_steps(tracer: Tracer, phrases) -> None:
    tracer.counts["steps"] += len(phrases)
    tracer.counts["unmatched_steps"] += sum(1 for p in phrases if not p.matched)


def _count_states(tracer: Tracer, automaton) -> None:
    tracer.automaton_states.append(len(automaton.states))


def program_targets(plancheck) -> list:
    """Every layer boundary the ops cross, by the name each caller looks up."""
    fmdp, checker, interventions = plancheck.fmdp, plancheck.checker, plancheck.interventions
    return [
        (fmdp, "calibrate_decision", "fmdp.calibrate_decision", None),
        (fmdp, "verify_plan", "fmdp.verify_plan", None),
        (interventions, "verify_plan", "fmdp.verify_plan", None),
        (fmdp, "encode", "plan_encoder.encode", None),
        (plancheck.plan_encoder, "parse_phrases", "plan_encoder.parse_phrases", _count_steps),
        (fmdp, "check_all", "checker.check_all", None),
        (checker, "check", "checker.check", None),
        (checker, "ltl_to_buchi", "checker.ltl_to_buchi", _count_states),
        (interventions, "threshold_sweep", "interventions.threshold_sweep", None),
        (interventions, "generate_refinement_dataset", "interventions.generate_refinement_dataset", None),
        (interventions, "active_sense", "interventions.active_sense", None),
        (interventions, "decision_score", "fmdp.decision_score", None),
        (interventions, "perception_score", "conformal.perception_score", None),
        (plancheck.clients.HttpModelClient, "request", "clients.request", None),
    ]


def oracle_targets(plancheck) -> list:
    return [(plancheck.logic, "eval_trace", "logic.eval_trace", None)]


# --------------------------------------------------------------------------
# Per-layer metrics from spans
# --------------------------------------------------------------------------

MODULES = ("fmdp", "interventions", "plan_encoder", "checker", "conformal", "clients")


def analyse(tracer: Tracer, wall_s: float, ops: int, injected_delay_s: float,
            transport_attempts: int) -> dict[str, float]:
    """Per-layer metrics, self time per op by module included, from the traced pass."""
    spans = tracer.spans
    children: dict[int, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span[PARENT] is not None:
            children[span[PARENT]].append(i)

    def dur(i: int) -> float:
        return spans[i][END] - spans[i][START]

    def self_time(i: int) -> float:
        return dur(i) - sum(dur(c) for c in children[i])

    by_name: dict[str, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span[NAME]].append(i)

    def durations(name: str, scale: float) -> list[float]:
        return [dur(i) * scale for i in by_name.get(name, [])]

    def p50(values: list[float]) -> float:
        return median(values) if values else 0.0

    def tail_of(values: list[float]) -> float:
        return tail(values)[1] if values else 0.0

    # Every span but the output check's eval_trace calls lies inside an op.
    roots = [i for i, s in enumerate(spans) if s[PARENT] is None and s[NAME] != "logic.eval_trace"]
    module_self: dict[str, float] = defaultdict(float)
    for i, span in enumerate(spans):
        if span[NAME] != "logic.eval_trace":
            module_self[span[NAME].split(".")[0]] += self_time(i)

    translate = durations("checker.ltl_to_buchi", 1e3)
    search = [self_time(i) * 1e6 for i in by_name.get("checker.check", [])]
    requests = by_name.get("clients.request", [])
    request_ms = durations("clients.request", 1e3)
    op_self = []
    for i in roots:
        if not spans[i][NAME].startswith("interventions."):
            continue
        excluded = sum(dur(c) for c in children[i]
                       if spans[c][NAME] in ("clients.request", "fmdp.verify_plan"))
        op_self.append((dur(i) - excluded) * 1e3)
    states = tracer.automaton_states
    steps = tracer.counts.get("steps", 0.0)
    cells = tracer.counts.get("cells", 0.0)
    kept = tracer.counts.get("kept", 0.0)

    metrics = {
        "plan_encoder.encode_us.p50": p50(durations("plan_encoder.encode", 1e6)),
        "plan_encoder.encode_busy_ms": float(sum(durations("plan_encoder.encode", 1e3))),
        "plan_encoder.unmatched_step_ratio":
            tracer.counts.get("unmatched_steps", 0.0) / steps if steps else 0.0,
        "checker.translate_ms.p50": p50(translate),
        "checker.translate_ms.tail": tail_of(translate),
        "checker.automaton_states.mean": sum(states) / len(states) if states else 0.0,
        "checker.automaton_states.max": float(max(states)) if states else 0.0,
        "checker.search_us.p50": p50(search),
        "logic.eval_trace_us.p50": p50(durations("logic.eval_trace", 1e6)),
        "fmdp.verify_plan_us.p50": p50(durations("fmdp.verify_plan", 1e6)),
        "fmdp.verify_plan_us.tail": tail_of(durations("fmdp.verify_plan", 1e6)),
        "fmdp.pass_ratio": tracer.counts.get("pass_ratio_sum", 0.0) / ops if ops else 0.0,
        "fmdp.decision_score_us.p50": p50(durations("fmdp.decision_score", 1e6)),
        "conformal.perception_score_us.p50": p50(durations("conformal.perception_score", 1e6)),
        "interventions.active_sense_us.p50": p50(durations("interventions.active_sense", 1e6)),
        "interventions.verify_per_cell":
            len(by_name.get("fmdp.verify_plan", [])) / cells if cells else 0.0,
        "interventions.iterations_per_kept":
            tracer.counts.get("iterations", 0.0) / kept if kept else 0.0,
        "interventions.self_ms.p50": p50(op_self),
        "clients.request_ms.p50": p50(request_ms),
        "clients.request_ms.tail": tail_of(request_ms),
        "clients.overhead_ms": p50(request_ms) - injected_delay_s * 1e3 if request_ms else 0.0,
        "clients.busy_share": sum(request_ms) / 1e3 / wall_s if wall_s else 0.0,
        "clients.retries": float(max(0, transport_attempts - len(requests))) if requests else 0.0,
        "clients.failed_share":
            sum(1 for i in requests if spans[i][FAILED]) / len(requests) if requests else 0.0,
    }
    for module in MODULES:
        metrics[f"self_ms_per_op.{module}"] = module_self[module] * 1e3 / max(ops, 1)
    return metrics

