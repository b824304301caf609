"""plancheck benchmark: one workload, one seed, one result.

    python3 perfbench/run.py --workload calibrate --seed 1 --seconds 14 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--workload all`` runs the four workloads in turn, one result each.

Generates the workload's inputs from the seed, times set-up in fresh
processes, runs the workload in a child process, checks every op's output
against an independent oracle, and prints a table followed by one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the per-layer
ones from a traced pass.  The full result, with machine and provenance, is
written under ``.perfbench_work/results/``.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
import reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("calibrate", "rules", "sweep", "refine")
SETUP_SAMPLES = 5  # set-up runs per result, the workload's own included
DEADLINE_S = 170.0



def metric_units(kind: str) -> dict[str, str]:
    """Names and units of the ``end_to_end`` or ``per_layer`` metrics that
    BENCHMARK.json declares; the result carries exactly these."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child(workload: str, args, inputs: Path, out: Path, setup_only: bool, budget_s: float) -> dict:
    """Run workload.py in a fresh interpreter and return the JSON it wrote."""
    cmd = [
        sys.executable, str(Path(__file__).with_name("workload.py")),
        "--workload", workload, "--inputs", str(inputs), "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out),
    ]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    out.unlink(missing_ok=True)
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=max(1.0, budget_s),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        fail(f"workload process exceeded {budget_s:.0f} s")
    if proc.returncode != 0 or not out.exists():
        sys.stderr.write(proc.stderr)
        fail(f"workload process exited with code {proc.returncode}")
    return json.loads(out.read_text(encoding="utf-8"))


def provenance(seed: int) -> dict:
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "plancheck").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all four in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=14.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "plancheck" / "__init__.py").is_file():
        fail(f"no plancheck sources under {SRC}; run from a checkout of the repository")
    if not (ROOT / "BENCHMARK.json").is_file():
        fail(f"no BENCHMARK.json in {ROOT}")
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        run_workload(workload, args)


def run_workload(workload: str, args) -> None:
    """Generate, set up, run and check one workload; print its table and JSON line."""
    began = time.monotonic()
    run_dir = WORK / f"{workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    inputs = run_dir / "inputs"
    gen.generate(workload, args.seed, inputs)

    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - began)

    setups = [
        child(workload, args, inputs, run_dir / f"setup-{k}.json", True, remaining())
        for k in range(SETUP_SAMPLES - 1)
    ]
    result = child(workload, args, inputs, run_dir / "result.json", False, remaining())
    setups.append({"setup_s": result["setup_s"], "setup_raw_s": result["setup_raw_s"]})
    result["setup_samples_s"] = [s["setup_s"] for s in setups]
    result["setup_s"] = statistics.median(result["setup_samples_s"])
    result["raw"]["setup_s"] = statistics.median(s["setup_raw_s"] for s in setups)
    del result["setup_raw_s"]
    result.update(workload=workload, seconds=args.seconds, trace=args.trace,
                  provenance={**provenance(args.seed), "numpy": result.pop("numpy")})
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n", encoding="utf-8"
    )

    print_report(result, metric_units("per_layer"))
    values = result["per_layer"] if args.trace else result
    units = metric_units("per_layer" if args.trace else "end_to_end")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }), flush=True)


def print_report(r: dict, layer_units: dict[str, str]) -> None:
    p = r["provenance"]
    print(f"workload {r['workload']}  seed {p['seed']}  seconds {r['seconds']:g}  trace {r['trace']}")
    print(f"machine  {p['cores']} cores ({p['cores_usable']} usable), Python {p['python']}, "
          f"numpy {p['numpy']}, {p['platform']}")
    print(f"source   commit {p['commit']}, src sha256 {p['source_sha256'][:16]}")
    print(f"ops      {r['ops']} untraced in {r['wall_s']:.2f} s; attempted {r['attempted']}, "
          f"failed {r['failed']}")
    for error in r["errors"]:
        print(f"  error  {error}")
    raw = r["raw"]
    rows = [
        ("items_per_s", r["items_per_s"], "items/s", f"raw {raw['items_per_s']:.4f}"),
        ("op_p50_ms", r["op_p50_ms"], "ms", f"raw {raw['op_p50_ms']:.4f}"),
        ("op_tail_ms", r["op_tail_ms"], "ms",
         f"raw {raw['op_tail_ms']:.4f}; {r['op_tail_percentile']} of {r['ops']} ops"),
        ("error_rate", r["error_rate"], "ratio", f"{r['failed']}/{r['attempted']} ops"),
        ("setup_s", r["setup_s"], "s",
         f"raw {raw['setup_s']:.4f}; median of {len(r['setup_samples_s'])} set-ups"),
        ("peak_rss_mb", r["peak_rss_mb"], "MB", "workload process"),
    ]
    print(f"end-to-end (untraced; times scaled to a {reference.REFERENCE_MS:g} ms reference probe, "
          f"which took {raw['probe_ms_median']:.3f} ms in this run)")
    for name, value, unit, note in rows:
        print(f"  {name:<14} {value:>12.4f} {unit:<8} {note}")
    if not r["trace"]:
        return
    t = r["traced"]
    print(f"per-layer (traced pass: {t['ops']} ops in {t['wall_s']:.2f} s, {r['spans']} spans)")
    for name, value in r["per_layer"].items():
        if not name.startswith(("self_ms_per_op.", "trace.")):
            print(f"  {name:<36} {value:>12.4f} {layer_units[name]}")
    print("self time per op, by module")
    total = sum(v for k, v in r["per_layer"].items() if k.startswith("self_ms_per_op."))
    for name, value in r["per_layer"].items():
        if name.startswith("self_ms_per_op."):
            share = 100.0 * value / total if total else 0.0
            print(f"  {name.split('.', 1)[1]:<14} {value:>12.4f} ms  {share:5.1f} %")
    print(f"tracing overhead: items_per_s {r['items_per_s']:.2f} untraced, "
          f"{t['items_per_s']:.2f} traced ({r['per_layer']['trace.overhead_pct']:.1f} %)")


if __name__ == "__main__":
    main()
