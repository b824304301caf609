"""CLI subcommands: outputs, exit codes, config precedence, and JSON schemas."""
import argparse
import json
from pathlib import Path

import jsonschema
import pytest

from plancheck import bundled_path
from plancheck.cli import build_parser, main
from plancheck.logic import MAX_NESTING

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def validate(payload, schema_name):
    schema = json.loads(bundled_path(f"schemas/{schema_name}.schema.json").read_text())
    jsonschema.validate(payload, schema)


@pytest.fixture(scope="module")
def dists(tmp_path_factory):
    """Calibrated perception and decision distributions persisted to disk."""
    root = tmp_path_factory.mktemp("dists")
    dist_p = root / "dist_p.txt"
    dist_d = root / "dist_d.txt"
    assert (
        main(
            [
                "calibrate-perception",
                "--input", str(bundled_path("driving_perception_calibration.csv")),
                "--output", str(dist_p),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "calibrate-decision",
                "--specs", str(bundled_path("driving_gating_specs.txt")),
                "--input", str(bundled_path("driving_decision_calibration.jsonl")),
                "--output", str(dist_d),
            ]
        )
        == 0
    )
    return dist_p, dist_d


class TestCheck:
    def test_matches_golden_and_exits_one_on_violations(self, capsys):
        code, out, _ = run(
            capsys,
            "check",
            "--plan", str(bundled_path("demo_plan.txt")),
            "--objects", "car,truck",
        )
        assert out == (DATA / "demo_check.txt").read_text()
        assert code == 1

    def test_json_output_validates(self, capsys):
        code, out, _ = run(
            capsys,
            "check",
            "--plan", str(bundled_path("demo_plan.txt")),
            "--objects", "car,truck",
            "--json",
        )
        payload = json.loads(out)
        validate(payload, "check")
        verdicts = {v["name"]: v["holds"] for v in payload["verdicts"]}
        assert verdicts["phi1"] and not verdicts["phi3"] and not verdicts["phi9"]

    def test_gating_specs_all_hold(self, capsys):
        code, out, _ = run(
            capsys,
            "check",
            "--specs", str(bundled_path("driving_gating_specs.txt")),
            "--plan", str(bundled_path("demo_plan.txt")),
            "--objects", "car,truck",
        )
        assert code == 0
        assert "Fails" not in out

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "verdicts.txt"
        code, out, _ = run(
            capsys,
            "check",
            "--plan", str(bundled_path("demo_plan.txt")),
            "--objects", "car,truck",
            "--output", str(target),
        )
        assert target.read_text() == out


class TestEncode:
    def test_matches_golden(self, capsys):
        code, out, _ = run(
            capsys,
            "encode",
            "--plan", str(bundled_path("demo_plan.txt")),
            "--objects", "car,truck",
        )
        assert code == 0
        assert out == (DATA / "demo_structure.txt").read_text()

    def test_json_validates(self, capsys):
        code, out, _ = run(
            capsys,
            "encode",
            "--plan", str(bundled_path("demo_plan.txt")),
            "--objects", "car,truck",
            "--json",
        )
        payload = json.loads(out)
        validate(payload, "encode")
        assert payload["states"] == ["q0", "q1", "q2", "q3", "q_done"]


class TestCalibration:
    def test_perception_report_json(self, capsys, tmp_path):
        out_path = tmp_path / "dist.txt"
        code, out, _ = run(
            capsys,
            "calibrate-perception",
            "--input", str(bundled_path("driving_perception_calibration.csv")),
            "--output", str(out_path),
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        validate(payload, "calibrate-perception")
        assert payload["n"] == 40
        assert out_path.exists()

    def test_decision_report_json(self, capsys, tmp_path):
        out_path = tmp_path / "dist.txt"
        code, out, _ = run(
            capsys,
            "calibrate-decision",
            "--specs", str(bundled_path("driving_gating_specs.txt")),
            "--input", str(bundled_path("driving_decision_calibration.jsonl")),
            "--output", str(out_path),
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        validate(payload, "calibrate-decision")
        assert payload["included"] == 20 and payload["total"] == 20


class TestScoring:
    def test_perception_score(self, capsys, dists):
        dist_p, _ = dists
        code, out, _ = run(
            capsys,
            "score-perception",
            "--dist", str(dist_p),
            "--probs", "0.49 0.47 0.02 0.01 0.01",
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        validate(payload, "score-perception")
        assert 0.0 <= payload["u_p"] <= 1.0

    def test_decision_rejected_below_gate(self, capsys, dists):
        _, dist_d = dists
        code, out, _ = run(capsys, "score-decision", "--dist", str(dist_d), "--confidence", "0.4")
        assert code == 0
        assert out == "Rejected (< 0.5 gate)\n"

    def test_decision_scored_json(self, capsys, dists):
        _, dist_d = dists
        code, out, _ = run(
            capsys, "score-decision", "--dist", str(dist_d), "--confidence", "0.9", "--json"
        )
        payload = json.loads(out)
        validate(payload, "score-decision")
        assert payload == {"rejected": False, "u_d": 1.0}

    def test_rejected_json(self, capsys, dists):
        _, dist_d = dists
        code, out, _ = run(
            capsys, "score-decision", "--dist", str(dist_d), "--confidence", "0.4", "--json"
        )
        validate(json.loads(out), "score-decision")


class TestSense:
    def test_outcomes_json(self, capsys, dists):
        dist_p, _ = dists
        code, out, _ = run(
            capsys,
            "sense",
            "--scenarios", str(bundled_path("driving_sweep_corpus.jsonl")),
            "--dist", str(dist_p),
            "--t-p", "0.7",
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        validate(payload, "sense")
        assert len(payload) == 16
        for outcome in payload:
            if outcome["accepted"]:
                assert outcome["u_p"] >= 0.7

    def test_json_matches_golden(self, capsys, dists):
        dist_p, _ = dists
        code, out, _ = run(
            capsys,
            "sense",
            "--scenarios", str(bundled_path("driving_sweep_corpus.jsonl")),
            "--dist", str(dist_p),
            "--t-p", "0.7",
            "--json",
        )
        assert code == 0
        assert out == (DATA / "sense_golden.json").read_text()


class TestRefine:
    def test_reproducible_dataset(self, capsys, dists, tmp_path):
        dist_p, _ = dists
        outputs = []
        for name in ("one.jsonl", "two.jsonl"):
            target = tmp_path / name
            code, out, _ = run(
                capsys,
                "refine",
                "--specs", str(bundled_path("driving_gating_specs.txt")),
                "--images", str(bundled_path("refine_images.jsonl")),
                "--tasks", str(bundled_path("task_bank.txt")),
                "--dist", str(dist_p),
                "--fixtures", str(bundled_path("replay_fixtures.jsonl")),
                "--sample-size", "5",
                "--budget", "40",
                "--seed", "7",
                "--output", str(target),
                "--json",
            )
            assert code == 0
            validate(json.loads(out), "refine")
            outputs.append(target.read_bytes())
        assert outputs[0] == outputs[1]

    def test_dataset_matches_golden(self, capsys, dists, tmp_path):
        target = tmp_path / "refine.jsonl"
        code, _, _ = run(
            capsys,
            "refine",
            "--specs", str(bundled_path("driving_gating_specs.txt")),
            "--images", str(bundled_path("refine_images.jsonl")),
            "--tasks", str(bundled_path("task_bank.txt")),
            "--dist", str(dists[0]),
            "--fixtures", str(bundled_path("replay_fixtures.jsonl")),
            "--sample-size", "5",
            "--budget", "40",
            "--seed", "7",
            "--output", str(target),
        )
        assert code == 0
        assert target.read_bytes() == (DATA / "refine_golden.jsonl").read_bytes()

    def test_endpoint_that_is_not_a_url_exits_two(self, capsys, dists, tmp_path):
        target = tmp_path / "out.jsonl"
        code, out, err = run(
            capsys,
            "refine",
            "--specs", str(bundled_path("driving_gating_specs.txt")),
            "--images", str(bundled_path("refine_images.jsonl")),
            "--tasks", str(bundled_path("task_bank.txt")),
            "--dist", str(dists[0]),
            "--endpoint", "notaurl",
            "--sample-size", "2",
            "--budget", "6",
            "--output", str(target),
        )
        assert code == 2
        assert out == ""
        assert err == "error: client.endpoint must be an http(s) URL, got 'notaurl'\n"
        assert not target.exists()

    def test_budget_exhaustion_writes_partial_and_exits_one(self, capsys, dists, tmp_path):
        dist_p, _ = dists
        empty = tmp_path / "empty_fixtures.jsonl"
        empty.write_text("")  # every query misses: all iterations are model errors
        target = tmp_path / "out.jsonl"
        code, _, err = run(
            capsys,
            "refine",
            "--specs", str(bundled_path("driving_gating_specs.txt")),
            "--images", str(bundled_path("refine_images.jsonl")),
            "--tasks", str(bundled_path("task_bank.txt")),
            "--dist", str(dist_p),
            "--fixtures", str(empty),
            "--sample-size", "2",
            "--budget", "10",
            "--seed", "7",
            "--output", str(target),
        )
        assert code == 1
        assert "budget exhausted" in err
        assert target.exists()

    def test_client_error_exit_code(self, capsys, monkeypatch):
        from plancheck.clients import TransportError
        import plancheck.cli as cli_module

        def explode(args, config):
            raise TransportError("endpoint unreachable")

        monkeypatch.setattr(cli_module, "cmd_encode", explode)
        # rebuild dispatch through main so the mapping under test is real
        code = cli_module.main(
            ["encode", "--plan", str(bundled_path("demo_plan.txt"))]
        )
        assert code == 3


class TestDpo:
    def test_pairs_from_records(self, capsys, tmp_path):
        records = [
            {
                "image_id": "img",
                "task": "go",
                "plan": "1. Wait.",
                "confidence": 0.9,
                "objects": [],
            },
            {
                "image_id": "img",
                "task": "go",
                "plan": "1. Move forward at the red light.",
                "confidence": 0.8,
                "objects": [],
            },
        ]
        source = tmp_path / "records.jsonl"
        source.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        target = tmp_path / "pairs.jsonl"
        code, out, _ = run(
            capsys,
            "dpo",
            "--specs", str(bundled_path("driving_gating_specs.txt")),
            "--input", str(source),
            "--output", str(target),
            "--json",
        )
        assert code == 0
        validate(json.loads(out), "dpo")
        pair = json.loads(target.read_text().splitlines()[0])
        assert pair["chosen"] == "1. Wait."
        assert pair["rejected"] == "1. Move forward at the red light."

    def test_pairs_match_golden(self, capsys, tmp_path):
        # The first six gating records: five compliant plans and one violating one.
        lines = bundled_path("driving_gating_corpus.jsonl").read_text().splitlines(keepends=True)
        source = tmp_path / "records.jsonl"
        source.write_text("".join(lines[:6]))
        target = tmp_path / "pairs.jsonl"
        code, _, _ = run(
            capsys,
            "dpo",
            "--specs", str(bundled_path("driving_gating_specs.txt")),
            "--input", str(source),
            "--output", str(target),
        )
        assert code == 0
        assert target.read_bytes() == (DATA / "dpo_golden.jsonl").read_bytes()


class TestExportSmv:
    def test_matches_golden(self, capsys):
        code, out, _ = run(
            capsys,
            "export-smv",
            "--plan", str(bundled_path("demo_plan.txt")),
            "--objects", "car,truck",
        )
        assert code == 0
        assert out == (DATA / "demo.smv").read_text()

    def test_writes_file(self, capsys, tmp_path):
        target = tmp_path / "model.smv"
        code, out, _ = run(
            capsys,
            "export-smv",
            "--plan", str(bundled_path("demo_plan.txt")),
            "--objects", "car,truck",
            "--output", str(target),
        )
        assert code == 0 and out == ""
        assert target.read_text() == (DATA / "demo.smv").read_text()


class TestQq:
    def test_identity_diagonal(self, capsys, dists):
        dist_p, _ = dists
        code, out, _ = run(
            capsys, "qq", "--a", str(dist_p), "--b", str(dist_p), "--points", "9", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        validate(payload, "qq")
        assert all(x == y for x, y in payload["points"])

    def test_csv_output(self, capsys, dists):
        dist_p, dist_d = dists
        code, out, _ = run(capsys, "qq", "--a", str(dist_p), "--b", str(dist_d), "--points", "5")
        lines = out.strip().splitlines()
        assert lines[0] == "quantile_a,quantile_b"
        assert len(lines) == 6


class TestSweep:
    def test_csv_and_json(self, capsys, dists, tmp_path):
        dist_p, dist_d = dists
        target = tmp_path / "sweep.csv"
        code, out, _ = run(
            capsys,
            "sweep",
            "--specs", str(bundled_path("driving_gating_specs.txt")),
            "--scenarios", str(bundled_path("driving_sweep_corpus.jsonl")),
            "--dist-p", str(dist_p),
            "--dist-d", str(dist_d),
            "--output", str(target),
        )
        assert code == 0
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "threshold,accuracy,as_frequency,satisfy_prob"
        assert len(lines) == 6
        code, out, _ = run(
            capsys,
            "sweep",
            "--specs", str(bundled_path("driving_gating_specs.txt")),
            "--scenarios", str(bundled_path("driving_sweep_corpus.jsonl")),
            "--dist-p", str(dist_p),
            "--dist-d", str(dist_d),
            "--json",
        )
        validate(json.loads(out), "sweep")

    def test_matches_golden(self, capsys, dists, tmp_path):
        dist_p, dist_d = dists
        target = tmp_path / "sweep.csv"
        code, out, _ = run(
            capsys,
            "sweep",
            "--specs", str(bundled_path("driving_gating_specs.txt")),
            "--scenarios", str(bundled_path("driving_sweep_corpus.jsonl")),
            "--dist-p", str(dist_p),
            "--dist-d", str(dist_d),
            "--thresholds",
            "0,0.05,0.1,0.15,0.2,0.25,0.3,0.35,0.4,0.45,0.5,0.55,0.6,0.65,0.7,0.75,0.8,0.85,0.9,0.95,1",
            "--output", str(target),
        )
        golden = (DATA / "sweep_golden.csv").read_text()
        assert code == 0
        assert out == golden
        assert target.read_text() == golden


GOOD_SCENE = {
    "scene_id": "ok",
    "observations": [{"detections": [{"label_hypothesis": "car", "probs": [0.9, 0.1]}]}],
}
DETECTION = GOOD_SCENE["observations"][0]["detections"][0]
MALFORMED_SCENES = {
    "missing scene_id": {"observations": GOOD_SCENE["observations"]},
    "mistyped scene_id": {**GOOD_SCENE, "scene_id": 7},
    "missing observations": {"scene_id": "a"},
    "mistyped observations": {**GOOD_SCENE, "observations": {"detections": []}},
    "empty observations": {**GOOD_SCENE, "observations": []},
    "missing detections": {**GOOD_SCENE, "observations": [{"image_id": "i"}]},
    "mistyped detections": {**GOOD_SCENE, "observations": [{"detections": "car"}]},
    "missing label_hypothesis": {
        **GOOD_SCENE, "observations": [{"detections": [{"probs": [0.9, 0.1]}]}]
    },
    "mistyped label_hypothesis": {
        **GOOD_SCENE, "observations": [{"detections": [{**DETECTION, "label_hypothesis": ["car"]}]}]
    },
    "missing probs": {
        **GOOD_SCENE, "observations": [{"detections": [{"label_hypothesis": "car"}]}]
    },
    "mistyped probs": {
        **GOOD_SCENE, "observations": [{"detections": [{**DETECTION, "probs": "0.9 0.1"}]}]
    },
    "mistyped probability": {
        **GOOD_SCENE, "observations": [{"detections": [{**DETECTION, "probs": [0.9, None]}]}]
    },
    **{
        f"true_label {label!r}": {
            **GOOD_SCENE, "observations": [{"detections": [{**DETECTION, "true_label": label}]}]
        }
        for label in ("0", True, 9, -1, 1.5)
    },
    "mistyped image_id": {
        **GOOD_SCENE, "observations": [{**GOOD_SCENE["observations"][0], "image_id": 7}]
    },
    "mistyped source": {
        **GOOD_SCENE, "observations": [{**GOOD_SCENE["observations"][0], "source": ["cam"]}]
    },
}


class TestMalformedScenarios:
    @pytest.mark.parametrize("command", ["sense", "sweep"])
    @pytest.mark.parametrize("case", sorted(MALFORMED_SCENES))
    def test_exits_two_naming_the_line(self, capsys, dists, tmp_path, command, case):
        dist_p, dist_d = dists
        scenarios = tmp_path / "scenes.jsonl"
        scenarios.write_text(json.dumps(GOOD_SCENE) + "\n" + json.dumps(MALFORMED_SCENES[case]) + "\n")
        if command == "sense":
            argv = ["sense", "--dist", str(dist_p)]
        else:
            argv = ["sweep", "--dist-p", str(dist_p), "--dist-d", str(dist_d)]
        code, out, err = run(capsys, *argv, "--scenarios", str(scenarios))
        assert code == 2
        assert out == ""
        assert f"{scenarios}:2: " in err


class TestConfigHandling:
    def test_config_file_with_flag_override(self, capsys, tmp_path, dists):
        dist_p, _ = dists
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "specs": str(bundled_path("driving_gating_specs.txt")),
                    "t_p": 0.9,
                }
            )
        )
        # flag overrides the file's 0.9
        code, out, _ = run(
            capsys,
            "sense",
            "--config", str(config),
            "--scenarios", str(bundled_path("driving_sweep_corpus.jsonl")),
            "--dist", str(dist_p),
            "--t-p", "0.5",
            "--json",
        )
        assert code == 0
        for outcome in json.loads(out):
            assert outcome["attempts"] == 1  # every first observation clears 0.5

    def test_missing_config_file(self, capsys):
        code, _, err = run(capsys, "check", "--config", "/nonexistent.json", "--plan", "x")
        assert code == 2
        assert "config" in err

    def test_missing_vocabulary(self, capsys):
        code, _, err = run(
            capsys,
            "check",
            "--vocabulary", "/nonexistent-vocab.txt",
            "--plan", str(bundled_path("demo_plan.txt")),
        )
        assert code == 2

    def test_bad_threshold_in_config(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"t_p": 1.5}))
        code, _, err = run(
            capsys,
            "check",
            "--config", str(config),
            "--plan", str(bundled_path("demo_plan.txt")),
        )
        assert code == 2

    @pytest.mark.parametrize(
        "raw",
        [
            {"t_p": "0.7"},
            {"t_p": None},
            {"t_p": True},
            {"seed": 1.5},
            {"seed": "3"},
            {"filter_mode": ["all"]},
            {"client": "fixtures.jsonl"},
            {"client": {"timeout": [1]}},
            {"client": {"timeout": "30"}},
            {"client": {"timeout": True}},
            {"client": {"timeout": 0}},
            {"client": {"timeout": -1.5}},
            {"client": {"timeout": float("inf")}},
            {"client": {"timeout": 1e10}},
            {"client": {"retries": 1.5}},
            {"client": {"retries": "2"}},
            {"client": {"retries": False}},
            {"client": {"retries": -1}},
            {"client": {"endpoint": 9}},
            {"client": {"fixtures": ["replay.jsonl"]}},
            {"client": {"audit_log": {"path": "audit.jsonl"}}},
            {"specs": 7},
            ["t_p", 0.7],
            {"client": {"endpoint": "notaurl"}},
            {"client": {"endpoint": "ftp://host/"}},
            {"client": {"endpoint": "http://[::1/"}},
        ],
    )
    def test_wrongly_typed_config_value_exits_two(self, capsys, tmp_path, raw):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw))
        code, out, err = run(
            capsys,
            "check",
            "--config", str(config),
            "--plan", str(bundled_path("demo_plan.txt")),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_mistyped_client_timeout_exits_two_before_any_request(self, capsys, tmp_path, dists):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"client": {"endpoint": "http://127.0.0.1:9/", "timeout": [1]}}))
        code, out, err = run(
            capsys,
            "refine",
            "--config", str(config),
            "--specs", str(bundled_path("driving_gating_specs.txt")),
            "--images", str(bundled_path("refine_images.jsonl")),
            "--tasks", str(bundled_path("task_bank.txt")),
            "--dist", str(dists[0]),
            "--sample-size", "2",
            "--budget", "10",
            "--output", str(tmp_path / "out.jsonl"),
        )
        assert code == 2
        assert err == "error: client.timeout must be a positive number, got [1]\n"
        assert not (tmp_path / "out.jsonl").exists()

    @pytest.mark.parametrize("content", [b"{bad", b'{"t_p": "\xff"}'], ids=["not JSON", "not UTF-8"])
    def test_malformed_config_file_is_named(self, capsys, tmp_path, content):
        config = tmp_path / "config.json"
        config.write_bytes(content)
        code, out, err = run(
            capsys,
            "check",
            "--config", str(config),
            "--plan", str(bundled_path("demo_plan.txt")),
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: config file {config} is not valid JSON: ")

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as info:
            main(["check"])  # --plan is required
        assert info.value.code == 2

    def test_removed_decision_threshold_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["check", "--t-d", "0.7", "--plan", str(bundled_path("demo_plan.txt"))])
        assert info.value.code == 2
        assert "unrecognized arguments: --t-d" in capsys.readouterr().err


# Each command's shared flags besides --config: the ones its cmd_* function reads.
SHARED_FLAGS = {
    "check": {"--vocabulary", "--specs", "--json"},
    "encode": {"--vocabulary", "--json"},
    "calibrate-perception": {"--json"},
    "calibrate-decision": {"--vocabulary", "--specs", "--filter-mode", "--json"},
    "score-perception": {"--json"},
    "score-decision": {"--json"},
    "sense": {"--t-p", "--json"},
    "refine": {"--vocabulary", "--specs", "--t-p", "--seed", "--json"},
    "dpo": {"--vocabulary", "--specs", "--json"},
    "export-smv": {"--vocabulary", "--specs"},
    "qq": {"--json"},
    "sweep": {"--vocabulary", "--specs", "--json"},
}


class TestSharedFlags:
    def options(self, command):
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return {flag for action in sub.choices[command]._actions for flag in action.option_strings}

    def test_each_command_takes_the_shared_flags_it_reads(self):
        shared = {"--config"}.union(*SHARED_FLAGS.values())
        slots = 0
        for command, flags in SHARED_FLAGS.items():
            taken = self.options(command) & shared
            assert taken == {"--config", *flags}, command
            slots += len(taken)
        assert slots == 40

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--t-p", "0.8", "--scenarios", "s.jsonl", "--dist-p", "p.txt", "--dist-d", "d.txt"],
            ["check", "--seed", "1", "--plan", "plan.txt"],
            ["export-smv", "--json", "--plan", "plan.txt"],
        ],
    )
    def test_flag_the_command_does_not_read_exits_two(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err

    def test_encode_does_not_parse_the_specs(self, capsys, tmp_path):
        specs = tmp_path / "specs.txt"
        specs.write_text("broken: G (car &\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"specs": str(specs)}))
        code, out, err = run(
            capsys,
            "encode",
            "--config", str(config),
            "--plan", str(bundled_path("demo_plan.txt")),
            "--objects", "car,truck",
        )
        assert (code, err) == (0, "")
        assert out == (DATA / "demo_structure.txt").read_text()


def nested(shape: str, levels: int) -> str:
    """A rule over ``car`` nested ``levels`` deep in one shape."""
    if shape == "parentheses":
        return "(" * levels + "car" + ")" * levels
    if shape == "prefix":
        return " ".join("!XGF"[i % 4] for i in range(levels)) + " car"
    token = {"and": "&", "until": "U", "implies": "->"}[shape]
    return f" {token} ".join(["car"] * (levels + 1))


class TestNestingBound:
    SHAPES = ("parentheses", "prefix", "and", "until", "implies")

    def run_rule(self, capsys, tmp_path, command, text):
        specs = tmp_path / "specs.txt"
        specs.write_text(f"deep: {text}\n")
        plan = str(bundled_path("demo_plan.txt"))
        return specs, run(capsys, command, "--specs", str(specs), "--plan", plan)

    @pytest.mark.parametrize("command", ("check", "export-smv"))
    @pytest.mark.parametrize("shape", SHAPES)
    def test_rule_at_the_bound_runs(self, capsys, tmp_path, shape, command):
        _, (code, out, err) = self.run_rule(capsys, tmp_path, command, nested(shape, MAX_NESTING))
        assert err == ""
        assert code in ((0, 1) if command == "check" else (0,))
        assert "deep" in out

    @pytest.mark.parametrize("levels", (MAX_NESTING + 1, 1500))
    @pytest.mark.parametrize("command", ("check", "export-smv"))
    @pytest.mark.parametrize("shape", SHAPES)
    def test_rule_past_the_bound_exits_two(self, capsys, tmp_path, shape, command, levels):
        specs, (code, out, err) = self.run_rule(capsys, tmp_path, command, nested(shape, levels))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {specs}:1: formula nested deeper than {MAX_NESTING} levels")
