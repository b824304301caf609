"""CLI outputs on bundled data are the same bytes in every interpreter.

Strings hash by ``PYTHONHASHSEED`` and formulas by identity, that is by
memory address, so an output that followed the iteration order of a set or
dict keyed by either would differ from one process to the next.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

from plancheck import bundled_path

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs each (name, argv, expected exit code) through the CLI in one
# interpreter and writes the code and stdout to the file ``name``.
SCRIPT = """
import contextlib, io, json, sys
from plancheck.cli import main
for name, argv, _ in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    with open(name, "w", encoding="utf-8") as f:
        f.write(f"exit {code}\\n{out.getvalue()}")
"""


def commands():
    demo = ["--plan", str(bundled_path("demo_plan.txt")), "--objects", "car,truck"]
    gating = ["--specs", str(bundled_path("driving_gating_specs.txt"))]
    return [
        ("check.out", ["check", *demo, "--json"], 1),
        ("export.smv", ["export-smv", *demo], 0),
        ("encode.out", ["encode", *demo, "--json"], 0),
        ("calibrate-perception.out", [
            "calibrate-perception",
            "--input", str(bundled_path("driving_perception_calibration.csv")),
            "--output", "dist_p.txt",
        ], 0),
        ("calibrate-decision.out", [
            "calibrate-decision", *gating,
            "--input", str(bundled_path("driving_decision_calibration.jsonl")),
            "--output", "dist_d.txt", "--json",
        ], 0),
        ("sense.out", [
            "sense", "--scenarios", str(bundled_path("driving_sweep_corpus.jsonl")),
            "--dist", "dist_p.txt", "--json",
        ], 0),
        ("qq.out", ["qq", "--a", "dist_p.txt", "--b", "dist_d.txt"], 0),
        ("sweep.out", [
            "sweep", *gating,
            "--scenarios", str(bundled_path("driving_sweep_corpus.jsonl")),
            "--dist-p", "dist_p.txt", "--dist-d", "dist_d.txt",
            "--output", "sweep.csv", "--json",
        ], 0),
        ("refine.out", [
            "refine", *gating,
            "--images", str(bundled_path("refine_images.jsonl")),
            "--tasks", str(bundled_path("task_bank.txt")),
            "--dist", "dist_p.txt",
            "--fixtures", str(bundled_path("replay_fixtures.jsonl")),
            "--sample-size", "5", "--budget", "40", "--seed", "7",
            "--output", "dataset.jsonl", "--json",
        ], 0),
        ("dpo.out", [
            "dpo", *gating,
            "--input", str(bundled_path("driving_gating_corpus.jsonl")),
            "--output", "pairs.jsonl", "--json",
        ], 0),
    ]


def run_all(workdir: Path, hash_seed: str) -> dict[str, bytes]:
    workdir.mkdir()
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(commands())],
        cwd=workdir, env=env, check=True, timeout=60,
    )
    return {path.name: path.read_bytes() for path in sorted(workdir.iterdir())}


def test_cli_outputs_match_across_hash_seeds(tmp_path):
    first = run_all(tmp_path / "seed0", "0")
    second = run_all(tmp_path / "seed1", "1")
    expected = {name for name, _, _ in commands()}
    expected |= {"dist_p.txt", "dist_d.txt", "sweep.csv", "dataset.jsonl", "pairs.jsonl"}
    assert set(first) == expected
    for name, _, code in commands():
        assert first[name].startswith(f"exit {code}\n".encode()), first[name][:200]
    assert all(first[name] for name in expected)
    for name in sorted(expected):
        assert first[name] == second[name], name
