"""Independent references for every op's output.

Verdicts come from the trace oracle, ``logic.eval_trace`` on the unique lasso
of the encoded chain (``single_path``), never from the automaton checker.
Scores come from a pure-Python ECDF over the same calibration values.  The
sweep and the refinement loop are re-run here step by step from their
documented semantics, so a wrong number or a changed dataset byte is caught.
"""
from __future__ import annotations

import json
import math
import random

from gen import detection_score, ecdf
from plancheck import logic, plan_encoder

CONFIDENCE_GATE = 0.5
FLOAT_TOLERANCE = 1e-12


class Oracle:
    def __init__(self, vocab, specs):
        self.vocab = vocab
        self.specs = list(specs)
        self._memo: dict = {}

    def verdict(self, structure, formula) -> bool:
        return logic.eval_trace(formula, logic.single_path(structure), structure.labeling)

    def passes_all(self, plan: str, observed) -> bool | None:
        """All-rules verdict for a plan, None when the encoder rejects it."""
        key = (plan, frozenset(observed))
        if key not in self._memo:
            try:
                structure = plan_encoder.encode(plan, self.vocab, observed)
            except (plan_encoder.EmptyPlanError, plan_encoder.NoPhrasesError):
                self._memo[key] = None
            else:
                self._memo[key] = all(self.verdict(structure, f) for _, f in self.specs)
        return self._memo[key]

    # ----------------------------------------------------------------------
    # calibrate
    # ----------------------------------------------------------------------

    def calibration(self, records) -> tuple[list[float], int, int]:
        """(sorted scores of passing records, included, unencodable)."""
        scores, unencodable = [], 0
        for record in records:
            ok = self.passes_all(record.plan, record.observed)
            if ok is None:
                unencodable += 1
            elif ok:
                scores.append(1.0 - record.confidence)
        return sorted(scores), len(scores), unencodable

    def check_calibrate(self, records, output) -> str | None:
        dist, report = output
        scores, included, unencodable = self.calibration(records)
        if [float(s) for s in dist.scores] != scores:
            return "distribution differs from the oracle's"
        if (report.total, report.included, report.unencodable) != (len(records), included, unencodable):
            return f"report {report} differs from oracle counts ({included}, {unencodable})"
        return None

    # ----------------------------------------------------------------------
    # rules
    # ----------------------------------------------------------------------

    def check_rule(self, structure, formula, verdict) -> str | None:
        expected = self.verdict(structure, formula)
        if verdict.holds != expected:
            return f"verdict {verdict.holds}, oracle {expected}"
        if not verdict.holds:
            cx = verdict.counterexample
            if cx is None:
                return "failing verdict without a counterexample"
            if logic.eval_trace(formula, cx, structure.labeling):
                return "counterexample satisfies the rule"
        return None

    # ----------------------------------------------------------------------
    # sweep
    # ----------------------------------------------------------------------

    def sweep_rows(self, scenes, thresholds, perception_scores, decision_scores) -> list[tuple]:
        """(threshold, accuracy, AS frequency, satisfy prob) per threshold."""
        rows = []
        for t in thresholds:
            accuracies, extra, executed = [], [], []
            for scene in scenes:
                attempts, settled = 0, None
                for obs in scene.observations:
                    attempts += 1
                    if image_score(obs, perception_scores) >= t:
                        settled = obs
                        break
                settled = settled or scene.observations[attempts - 1]
                scored = [d for d in settled.detections if d.true_label is not None]
                correct = sum(1 for d in scored if argmax(d.probs) == d.true_label)
                accuracies.append(correct / len(scored) if scored else 0.0)
                extra.append(attempts - 1)
                if scene.plan is None or scene.confidence is None:
                    continue
                if scene.confidence < CONFIDENCE_GATE or ecdf(decision_scores, scene.confidence) < t:
                    continue
                observed = scene.objects if scene.objects is not None else settled.reported_labels()
                executed.append(1.0 if self.passes_all(scene.plan, observed) else 0.0)
            rows.append((
                float(t),
                sum(accuracies) / len(accuracies),
                sum(extra) / len(extra),
                sum(executed) / len(executed) if executed else float("nan"),
            ))
        return rows

    def check_sweep(self, scenes, thresholds, perception_scores, decision_scores, output) -> str | None:
        expected = self.sweep_rows(scenes, thresholds, perception_scores, decision_scores)
        if len(output) != len(expected):
            return f"{len(output)} rows, expected {len(expected)}"
        for row, want in zip(output, expected):
            got = (row.threshold, row.accuracy, row.as_frequency, row.satisfy_prob)
            for name, a, b in zip(("threshold", "accuracy", "as_frequency", "satisfy_prob"), got, want):
                if not (a == b or (math.isnan(a) and math.isnan(b)) or abs(a - b) <= FLOAT_TOLERANCE):
                    return f"t={want[0]}: {name} {a!r}, oracle {b!r}"
        return None

    # ----------------------------------------------------------------------
    # refine
    # ----------------------------------------------------------------------

    def refinement(self, tasks, images, fixtures, perception_scores, sample_size, t_p, budget, seed):
        """(dataset lines, iterations, model errors) the seeded loop must give."""
        table = {(f["image"], f["task"], f["mode"]): f for f in fixtures}
        rng = random.Random(seed)
        lines, iterations, model_errors = [], 0, 0
        names = [name for name, _ in self.specs]
        while iterations < budget and len(lines) < sample_size:
            iterations += 1
            obs = images[rng.randrange(len(images))]
            task = tasks[rng.randrange(len(tasks))]
            u_p = image_score(obs, perception_scores)
            if u_p < t_p:
                continue
            plan_fx = table.get((obs.image_id, task, "plan"))
            sat_fx = table.get((obs.image_id, task, "satisfaction"))
            if plan_fx is None or sat_fx is None:
                model_errors += 1
                continue
            if not self.passes_all(plan_fx["plan"], obs.reported_labels()):
                continue
            lines.append(json.dumps({
                "image_id": obs.image_id,
                "task": task,
                "plan": plan_fx["plan"],
                "u_p": u_p,
                "verdicts": [[name, True] for name in names],
                "confidence": float(sat_fx["yes_confidence"]),
            }) + "\n")
        return "".join(lines).encode("utf-8"), iterations, model_errors

    def check_refine(self, data, report, dataset_bytes, expected, t_p, images_by_id) -> str | None:
        want_bytes, iterations, model_errors = expected
        for datum in data:
            if datum.u_p < t_p:
                return f"datum u_p {datum.u_p} below t_p {t_p}"
            observed = images_by_id[datum.image_id].reported_labels()
            if not self.passes_all(datum.plan, observed):
                return f"datum for {datum.image_id!r} does not re-verify"
        if dataset_bytes != want_bytes:
            return "dataset bytes differ from the seeded reference"
        if (report.iterations, report.model_errors) != (iterations, model_errors):
            return (f"report iterations/model errors {report.iterations}/{report.model_errors}, "
                    f"reference {iterations}/{model_errors}")
        return None


def argmax(probs) -> int:
    return max(range(len(probs)), key=lambda i: (probs[i], -i))


def image_score(obs, perception_scores: list[float]) -> float:
    """Minimum over detections of the ECDF at one minus the runner-up confidence."""
    return min(detection_score(perception_scores, d.probs) for d in obs.detections)
