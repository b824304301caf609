"""Batch command-line surface wiring all modules together.

Subcommands: check, encode, calibrate-perception, calibrate-decision,
score-perception, score-decision, sense, refine, dpo, export-smv, qq, sweep.

Exit codes: 0 success; 1 verification found violations (check) or the
refinement budget ran out (partial dataset still written); 2 usage or
configuration error; 3 client/transport error.  Every subcommand is
reproducible: the same config, inputs, and seed give byte-identical outputs.
Machine-readable output via --json (every subcommand but export-smv)
validates against the schemas shipped under data/schemas/.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import bundled_path
from .checker import check_all, export_smv, format_counterexample
from .clients import (
    DEFAULT_RETRIES,
    DEFAULT_TIMEOUT,
    ClientError,
    HttpModelClient,
    ReplayModelClient,
    check_endpoint,
    check_timeout_and_retries,
)
from .conformal import (
    NonconformityDistribution,
    load_perception_calibration,
    perception_nonconformity,
    perception_score,
    qq_points,
)
from .fmdp import (
    CONFIDENCE_GATE,
    FILTER_MODES,
    SCORE_MODES,
    PlanRecord,
    SpecificationSet,
    _plan_record,
    calibrate_decision,
    decision_score,
    load_plan_records,
    verify_plan,
)
from .inputs import _STR, _field, numbered_lines
from .interventions import (
    BudgetExhaustedError,
    active_sense,
    dpo_pairs,
    generate_refinement_dataset,
    load_scenarios,
    save_dpo_pairs,
    save_refinement_dataset,
    sweep_to_csv,
    threshold_sweep,
)
from .logic import Vocabulary
from .plan_encoder import encode


class ConfigError(ValueError):
    """Bad configuration value or missing referenced file."""


@dataclass
class Config:
    vocabulary: Path = field(default_factory=lambda: bundled_path("driving_vocabulary.txt"))
    specs: Path = field(default_factory=lambda: bundled_path("driving_specs.txt"))
    t_p: float = 0.7
    filter_mode: str = "all"
    seed: int = 0
    client: dict = field(default_factory=dict)

    def validate(self) -> None:
        if isinstance(self.t_p, bool) or not isinstance(self.t_p, (int, float)):
            raise ConfigError(f"t_p must be a number, got {self.t_p!r}")
        if not 0.0 <= self.t_p <= 1.0:
            raise ConfigError(f"t_p must lie in [0, 1], got {self.t_p}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        if not isinstance(self.filter_mode, str) or self.filter_mode not in FILTER_MODES:
            modes = " or ".join(map(repr, FILTER_MODES))
            raise ConfigError(f"filter_mode must be {modes}, got {self.filter_mode!r}")
        if not isinstance(self.client, dict):
            raise ConfigError(f"client must be an object, got {self.client!r}")
        try:
            check_timeout_and_retries(
                self.client.get("timeout", DEFAULT_TIMEOUT), self.client.get("retries", DEFAULT_RETRIES)
            )
            for key in ("endpoint", "fixtures", "audit_log"):
                if not isinstance(self.client.get(key, ""), str):
                    raise ValueError(f"{key} must be a string, got {self.client[key]!r}")
            if "endpoint" in self.client:
                check_endpoint(self.client["endpoint"])
        except ValueError as exc:
            raise ConfigError(f"client.{exc}") from exc
        for label, path in (("vocabulary", self.vocabulary), ("specs", self.specs)):
            if not Path(path).exists():
                raise ConfigError(f"{label} file does not exist: {path}")


def load_config(args: argparse.Namespace) -> Config:
    """Merge precedence: command-line flags > config file > defaults."""
    config = Config()
    path = args.config
    if path:
        if not Path(path).exists():
            raise ConfigError(f"config file does not exist: {path}")
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config file must hold a JSON object: {path}")
        for key in ("t_p", "filter_mode", "seed", "client"):
            if key in raw:
                setattr(config, key, raw[key])
        for key in ("vocabulary", "specs"):
            if key in raw:
                if not isinstance(raw[key], str):
                    raise ConfigError(f"{key} must be a path string, got {raw[key]!r}")
                setattr(config, key, Path(raw[key]))
    for key in ("vocabulary", "specs"):
        value = getattr(args, key, None)
        if value:
            setattr(config, key, Path(value))
    for key in ("t_p", "filter_mode", "seed"):
        value = getattr(args, key, None)
        if value is not None:
            setattr(config, key, value)
    for key in ("fixtures", "endpoint"):
        value = getattr(args, key, None)
        if value and isinstance(config.client, dict):  # validate rejects any other client
            config.client = {**config.client, key: value}
    config.validate()
    return config


def _emit(args, payload: dict | list, text: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif text:
        print(text, end="" if text.endswith("\n") else "\n")


def _load_context(config: Config):
    vocab = Vocabulary.load(config.vocabulary)
    specs = SpecificationSet.load(config.specs, vocab)
    return vocab, specs


def _make_client(config: Config):
    fixtures = config.client.get("fixtures")
    endpoint = config.client.get("endpoint")
    audit = config.client.get("audit_log")
    if fixtures:
        if not Path(fixtures).exists():
            raise ConfigError(f"fixture file does not exist: {fixtures}")
        return ReplayModelClient(fixtures, audit_path=audit)
    if endpoint:
        settings = {key: config.client[key] for key in ("timeout", "retries") if key in config.client}
        return HttpModelClient(endpoint, audit_path=audit, **settings)
    raise ConfigError("no model client configured: pass --fixtures or --endpoint")


def _read_objects(args) -> frozenset[str]:
    return frozenset(o.strip() for o in args.objects.split(",") if o.strip())


def _structure_payload(structure) -> dict:
    return {
        "states": list(structure.states),
        "initial": sorted(structure.initial),
        "transitions": sorted([list(t) for t in structure.transitions]),
        "labeling": {s: sorted(structure.labeling[s]) for s in structure.states},
    }


def _write_output(args, content: str) -> Path | None:
    if args.output:
        Path(args.output).write_text(content, encoding="utf-8")
        return Path(args.output)
    return None


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------

def cmd_check(args, config: Config) -> int:
    vocab, specs = _load_context(config)
    plan = Path(args.plan).read_text(encoding="utf-8")
    structure = encode(plan, vocab, _read_objects(args))
    results = check_all(structure, specs)
    table_lines = [f"{name}: {'Holds' if v.holds else 'Fails'}" for name, v in results]
    cex_blocks = [format_counterexample(v, structure) for _, v in results if not v.holds]
    text = "\n".join(table_lines) + "\n"
    if cex_blocks:
        text += "\n" + "\n".join(cex_blocks)
    payload = {
        "verdicts": [
            {"name": name, "holds": v.holds, "counterexample": None if v.holds else asdict(v.counterexample)}
            for name, v in results
        ]
    }
    _emit(args, payload, text)
    _write_output(args, text)
    return 1 if any(not v.holds for _, v in results) else 0


def cmd_encode(args, config: Config) -> int:
    vocab = Vocabulary.load(config.vocabulary)
    plan = Path(args.plan).read_text(encoding="utf-8")
    structure = encode(plan, vocab, _read_objects(args))
    payload = _structure_payload(structure)
    lines = ["states: " + " ".join(structure.states), "initial: " + " ".join(sorted(structure.initial)), "transitions:"]
    for src, dst in sorted(structure.transitions, key=lambda t: (structure.states.index(t[0]), structure.states.index(t[1]))):
        lines.append(f"  {src} -> {dst}")
    lines.append("labels:")
    for state in structure.states:
        lines.append(f"  {state}: " + " ".join(sorted(structure.labeling[state])))
    text = "\n".join(lines) + "\n"
    _emit(args, payload, text)
    _write_output(args, text)
    return 0


def cmd_calibrate_perception(args, config: Config) -> int:
    samples = load_perception_calibration(args.input)
    dist = perception_nonconformity(samples)
    dist.save(args.output)
    payload = {"n": len(dist), "output": str(args.output)}
    _emit(args, payload, f"calibrated {len(dist)} perception scores -> {args.output}\n")
    return 0


def cmd_calibrate_decision(args, config: Config) -> int:
    vocab, specs = _load_context(config)
    records = load_plan_records(args.input)
    dist, report = calibrate_decision(records, specs, vocab, filter_mode=config.filter_mode)
    dist.save(args.output)
    payload = {
        **asdict(report),
        "excluded": report.excluded,
        "filter_mode": config.filter_mode,
        "output": str(args.output),
    }
    _emit(
        args,
        payload,
        f"calibrated {report.included}/{report.total} records "
        f"({report.unencodable} unencodable) -> {args.output}\n",
    )
    return 0


def cmd_score_perception(args, config: Config) -> int:
    dist = NonconformityDistribution.load(args.dist)
    probs = [float(p) for p in args.probs.replace(",", " ").split()]
    u_p = perception_score(probs, dist)
    _emit(args, {"u_p": u_p}, f"u_p = {u_p:.6f}\n")
    return 0


def cmd_score_decision(args, config: Config) -> int:
    dist = NonconformityDistribution.load(args.dist)
    u_d = decision_score(args.confidence, dist, mode=args.mode)
    if u_d is None:
        _emit(args, {"rejected": True, "u_d": None}, f"Rejected (< {CONFIDENCE_GATE} gate)\n")
    else:
        _emit(args, {"rejected": False, "u_d": u_d}, f"u_d = {u_d:.6f}\n")
    return 0


def cmd_sense(args, config: Config) -> int:
    dist = NonconformityDistribution.load(args.dist)
    scenes = load_scenarios(args.scenarios)
    outcomes = []
    lines = []
    for scene in scenes:
        max_attempts = args.max_attempts or len(scene.observations)
        outcome = active_sense(scene.observations, dist, config.t_p, max_attempts)
        outcomes.append(
            {
                "scene_id": scene.scene_id,
                "accepted": outcome.accepted,
                "attempts": outcome.attempts,
                "u_p": outcome.score,
                "best_u_p": outcome.best_score,
            }
        )
        if outcome.accepted:
            lines.append(
                f"{scene.scene_id}: accepted attempt {outcome.attempts} (u_p = {outcome.score:.6f})"
            )
        else:
            best = "none" if outcome.best_score is None else f"{outcome.best_score:.6f}"
            lines.append(f"{scene.scene_id}: exhausted after {outcome.attempts} (best u_p = {best})")
    _emit(args, outcomes, "\n".join(lines) + "\n")
    return 0


def cmd_refine(args, config: Config) -> int:
    vocab, specs = _load_context(config)
    dist = NonconformityDistribution.load(args.dist)
    scenes = load_scenarios(args.images)
    images = [obs for scene in scenes for obs in scene.observations]
    with numbered_lines(args.tasks) as lines:
        tasks = list(lines)
    client = _make_client(config)
    exhausted = False
    try:
        data, report = generate_refinement_dataset(
            tasks,
            images,
            client,
            vocab,
            specs,
            dist,
            sample_size=args.sample_size,
            t_p=config.t_p,
            budget=args.budget,
            seed=config.seed,
        )
    except BudgetExhaustedError as exc:
        data, report = exc.partial, exc.report
        exhausted = True
        print(f"budget exhausted: {exc}; wrote partial dataset", file=sys.stderr)
    save_refinement_dataset(args.output, data)
    payload = {**asdict(report), "output": str(args.output)}
    _emit(
        args,
        payload,
        f"collected {report.collected} data in {report.iterations} iterations "
        f"(skipped {report.skipped_low_perception} low-perception, "
        f"{report.spec_failures} spec failures) -> {args.output}\n",
    )
    return 1 if exhausted else 0


def _dpo_record(obj) -> tuple[str, PlanRecord]:
    """A plan record plus its optional ``image_id``; confidence defaults to 1.0."""
    return _field(obj, "image_id", _STR, ""), _plan_record(obj, confidence=1.0)


def cmd_dpo(args, config: Config) -> int:
    vocab, specs = _load_context(config)
    with numbered_lines(args.input) as lines:
        records = [_dpo_record(json.loads(line)) for line in lines]
    pairs = dpo_pairs(
        (image_id, record.task, record.plan, verify_plan(record, specs, vocab))
        for image_id, record in records
    )
    save_dpo_pairs(args.output, pairs)
    payload = {"pairs": len(pairs), "output": str(args.output)}
    _emit(args, payload, f"wrote {len(pairs)} preference pairs -> {args.output}\n")
    return 0


def cmd_export_smv(args, config: Config) -> int:
    vocab, specs = _load_context(config)
    plan = Path(args.plan).read_text(encoding="utf-8")
    structure = encode(plan, vocab, _read_objects(args))
    text = export_smv(structure, specs)
    written = _write_output(args, text)
    if not written:
        print(text, end="")
    return 0


def cmd_qq(args, config: Config) -> int:
    sample_a = NonconformityDistribution.load(args.a).scores
    sample_b = NonconformityDistribution.load(args.b).scores
    points = qq_points(sample_a, sample_b, args.points)
    csv = "quantile_a,quantile_b\n" + "\n".join(f"{x:.6f},{y:.6f}" for x, y in points) + "\n"
    _emit(args, {"points": [[x, y] for x, y in points]}, csv)
    _write_output(args, csv)
    return 0


def cmd_sweep(args, config: Config) -> int:
    vocab, specs = _load_context(config)
    dist_p = NonconformityDistribution.load(args.dist_p)
    dist_d = NonconformityDistribution.load(args.dist_d)
    scenes = load_scenarios(args.scenarios)
    thresholds = [float(t) for t in args.thresholds.split(",") if t.strip()]
    rows = threshold_sweep(scenes, thresholds, dist_p, dist_d, specs, vocab)
    csv = sweep_to_csv(rows)
    payload = {
        "rows": [
            {**asdict(r), "satisfy_prob": None if r.satisfy_prob != r.satisfy_prob else r.satisfy_prob}
            for r in rows
        ]
    }
    _emit(args, payload, csv)
    _write_output(args, csv)
    return 0


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

# The flags that several commands share; each command takes only those its
# ``cmd_*`` function reads, so argparse rejects the rest.
_SHARED_FLAGS = {
    "--vocabulary": {"help": "vocabulary file path"},
    "--specs": {"help": "specification file path"},
    "--t-p": {"type": float, "help": "perception threshold"},
    "--filter-mode": {"choices": FILTER_MODES, "help": "calibration filter"},
    "--seed": {"type": int, "help": "PRNG seed for sampling loops"},
    "--json": {"action": "store_true", "help": "machine-readable output"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plancheck",
        description="Verify plan texts against temporal-logic rules and calibrate model confidence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, shared, summary):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        p.add_argument("--config", help="JSON config file (flags override file values)")
        for flag in shared.split():
            p.add_argument(flag, **_SHARED_FLAGS[flag])
        return p

    p = add("check", cmd_check, "--vocabulary --specs --json",
            "verify a plan file against the specification set")
    p.add_argument("--plan", required=True)
    p.add_argument("--objects", default="", help="comma-separated observed object labels")
    p.add_argument("--output", help="also write the verdict table and counterexamples here")

    p = add("encode", cmd_encode, "--vocabulary --json", "dump the Kripke structure of a plan")
    p.add_argument("--plan", required=True)
    p.add_argument("--objects", default="")
    p.add_argument("--output")

    p = add("calibrate-perception", cmd_calibrate_perception, "--json",
            "build the perception score distribution")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)

    p = add("calibrate-decision", cmd_calibrate_decision, "--vocabulary --specs --filter-mode --json",
            "verify records and build the decision distribution")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)

    p = add("score-perception", cmd_score_perception, "--json", "score one confidence vector")
    p.add_argument("--dist", required=True)
    p.add_argument("--probs", required=True, help="space- or comma-separated probabilities")

    p = add("score-decision", cmd_score_decision, "--json", "score one satisfaction confidence")
    p.add_argument("--dist", required=True)
    p.add_argument("--confidence", type=float, required=True)
    p.add_argument("--mode", choices=SCORE_MODES, default="confidence")

    p = add("sense", cmd_sense, "--t-p --json", "run active sensing over a scenario file")
    p.add_argument("--scenarios", required=True)
    p.add_argument("--dist", required=True)
    p.add_argument("--max-attempts", type=int, default=0, help="0 = as many as scripted")

    p = add("refine", cmd_refine, "--vocabulary --specs --t-p --seed --json",
            "generate a verified fine-tuning dataset")
    p.add_argument("--images", required=True, help="scenario file providing observations")
    p.add_argument("--tasks", required=True, help="task bank, one per line")
    p.add_argument("--dist", required=True, help="perception distribution file")
    p.add_argument("--fixtures", help="replay fixture file (replay client)")
    p.add_argument("--endpoint", help="HTTP endpoint (HTTP client)")
    p.add_argument("--sample-size", type=int, required=True)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--output", required=True)

    p = add("dpo", cmd_dpo, "--vocabulary --specs --json",
            "build preference pairs from assessed plan records")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)

    p = add("export-smv", cmd_export_smv, "--vocabulary --specs", "emit an SMV module for a plan")
    p.add_argument("--plan", required=True)
    p.add_argument("--objects", default="")
    p.add_argument("--output")

    p = add("qq", cmd_qq, "--json", "quantile-quantile points for two score files")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--points", type=int, default=21)
    p.add_argument("--output")

    p = add("sweep", cmd_sweep, "--vocabulary --specs --json", "threshold study over a scenario corpus")
    p.add_argument("--scenarios", required=True)
    p.add_argument("--thresholds", default="0.5,0.6,0.7,0.8,0.9")
    p.add_argument("--dist-p", required=True)
    p.add_argument("--dist-d", required=True)
    p.add_argument("--output")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args)
        return args.func(args, config)
    except ClientError as exc:
        print(f"client error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
