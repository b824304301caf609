"""The input boundary: every file loader reports a bad line as ``path:lineno``.

The property tests start from a valid file and break its second line: for
line-JSON formats they delete a field, null it, swap its JSON type or cut the
line short; for text formats they break one token.  Run through ``cli.main``,
such a file exits 2 naming ``path:2:``, never 1 and never with a traceback,
while a deleted or nulled optional field is accepted.
"""
import contextlib
import copy
import io
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plancheck import bundled_path
from plancheck.cli import main
from plancheck.conformal import ConfidenceVectorError, load_perception_calibration
from plancheck.inputs import numbered_lines
from plancheck.logic import (
    ID_PATTERN,
    LtlSyntaxError,
    Vocabulary,
    VocabularyError,
    load_specifications,
    parse_formula,
)

FUZZ = settings(max_examples=40, derandomize=True, database=None, deadline=None)
GATING = str(bundled_path("driving_gating_specs.txt"))
PRINTABLE = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=8)


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def assert_names_line(result, path, lineno):
    """``lineno=None`` is for a file with no line to blame: only its path is named."""
    code, out, err = result
    assert code == 2, err
    assert out == ""
    assert (f"{path}:{lineno}: " if lineno else str(path)) in err
    assert "Traceback" not in err


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A directory with the inputs each command needs besides the file under test."""
    root = tmp_path_factory.mktemp("inputs")
    assert main([
        "calibrate-perception",
        "--input", str(bundled_path("driving_perception_calibration.csv")),
        "--output", str(root / "dist_p.txt"),
    ]) == 0
    write_lines(root / "vocab.txt", VOCAB)
    write_lines(root / "specs.txt", SPECS)
    (root / "plan.txt").write_text("1. Wait.\n", encoding="utf-8")
    write_lines(root / "images.jsonl", [json.dumps(SCENE)])
    write_lines(root / "tasks.txt", ["go"])
    return root


# --------------------------------------------------------------------------
# Line-JSON formats
# --------------------------------------------------------------------------

SCENE = {
    "scene_id": "a",
    "observations": [{"image_id": "img", "detections": [{"label_hypothesis": "car", "probs": [0.99, 0.01]}]}],
}
JSON_FORMATS = {
    "records": {
        "lines": [
            {"task": "t", "plan": "1. Wait.", "confidence": 0.9, "objects": ["car"]},
            {"task": "t", "plan": "1. Wait at the red light.", "confidence": 0.8, "objects": ["car"]},
        ],
        "optional": {"task", "objects"},
        "unchecked": set(),
        "argv": lambda w, f: ["calibrate-decision", "--specs", GATING, "--input", f, "--output", w / "out"],
    },
    "dpo": {
        "lines": [
            {"plan": "1. Wait."},
            {"image_id": "", "task": "", "plan": "1. Move forward at the red light.",
             "confidence": 0.8, "objects": []},
        ],
        "optional": {"image_id", "task", "confidence", "objects"},
        "unchecked": set(),
        "argv": lambda w, f: ["dpo", "--specs", GATING, "--input", f, "--output", w / "out"],
    },
    "scenarios": {
        "lines": [
            SCENE,
            {
                "scene_id": "b",
                "observations": [
                    {
                        "image_id": "img",
                        "source": "cam",
                        "detections": [{"label_hypothesis": "car", "probs": [0.9, 0.1], "true_label": 0}],
                    }
                ],
                "plan": "1. Wait.",
                "confidence": 0.9,
                "task": "t",
                "objects": ["car"],
            },
        ],
        "optional": {"image_id", "source", "true_label", "plan", "confidence", "task", "objects"},
        "unchecked": set(),
        "argv": lambda w, f: ["sense", "--dist", w / "dist_p.txt", "--scenarios", f],
    },
    "fixtures": {
        "lines": [
            {"image": "img", "task": "go", "mode": "plan", "plan": "1. Wait."},
            {"image": "img", "task": "go", "mode": "satisfaction", "yes_confidence": 0.9},
        ],
        "optional": set(),
        # Reply fields are checked per query, not at load.
        "unchecked": {"yes_confidence"},
        "argv": lambda w, f: [
            "refine", "--specs", GATING, "--images", w / "images.jsonl", "--tasks", w / "tasks.txt",
            "--dist", w / "dist_p.txt", "--fixtures", f, "--sample-size", "1", "--budget", "1",
            "--output", w / "out",
        ],
    },
}
SWAPS = ("x", 7, 1.5, True, [], {})


def json_type(value):
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    return type(value).__name__


def field_paths(value, path=()):
    """The key path of every field and list item inside a decoded line."""
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from field_paths(child, path + (key,))


@st.composite
def broken_lines(draw, line, optional, unchecked):
    """A broken copy of ``line`` as text, and whether the loader must accept it."""
    text = json.dumps(line)
    op = draw(st.sampled_from(("delete", "null", "swap", "cut")))
    if op == "cut":
        return text[: draw(st.integers(1, len(text) - 1))], False
    paths = [p for p in field_paths(line) if p[-1] not in unchecked]
    path = draw(st.sampled_from([()] + paths))
    broken = copy.deepcopy(line)
    if not path:
        return json.dumps(draw(st.sampled_from(SWAPS))), False
    *parents, key = path
    parent = broken
    for step in parents:
        parent = parent[step]
    if op == "swap":
        parent[key] = draw(st.sampled_from([s for s in SWAPS if json_type(s) != json_type(parent[key])]))
    elif op == "delete" and isinstance(parent, dict):
        del parent[key]
    else:
        parent[key] = None
    return json.dumps(broken), op != "swap" and isinstance(key, str) and key in optional


@pytest.mark.parametrize("name", sorted(JSON_FORMATS))
def test_json_base_file_is_accepted(work, name):
    spec = JSON_FORMATS[name]
    path = write_lines(work / f"{name}.jsonl", [json.dumps(line) for line in spec["lines"]])
    code, _, err = run(*spec["argv"](work, path))
    assert code == 0, err


@pytest.mark.parametrize("name", sorted(JSON_FORMATS))
@FUZZ
@given(data=st.data())
def test_broken_json_line_exits_two_naming_it(work, name, data):
    spec = JSON_FORMATS[name]
    first, second = spec["lines"]
    text, accepted = data.draw(broken_lines(second, spec["optional"], spec["unchecked"]))
    path = write_lines(work / f"{name}.jsonl", [json.dumps(first), text])
    result = run(*spec["argv"](work, path))
    if accepted:
        assert result[0] == 0, result[2]
    else:
        assert_names_line(result, path, 2)


@pytest.mark.parametrize("argv", [
    lambda w: ["sense", "--dist", w / "dist_p.txt"],
    lambda w: ["sweep", "--dist-p", w / "dist_p.txt", "--dist-d", w / "dist_p.txt"],
], ids=["sense", "sweep"])
def test_scenario_confidence_out_of_range_names_its_line(work, argv):
    first, second = JSON_FORMATS["scenarios"]["lines"]
    path = write_lines(work / "scenarios.jsonl", [json.dumps(first), json.dumps({**second, "confidence": 1.5})])
    result = run(*argv(work), "--scenarios", path)
    assert_names_line(result, path, 2)
    assert "confidence must lie in [0, 1], got 1.5" in result[2]


# --------------------------------------------------------------------------
# Text formats
# --------------------------------------------------------------------------

VOCAB = ["wait: hold on", "move_forward: go ahead; drive on"]
SPECS = ["s1: F wait", "s2: G (wait -> !move_forward)"]
SPEC_TOKENS = re.findall(r"\w+|->|\S", SPECS[1].partition(":")[2])


def parses_as_float(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def test_text_base_files_are_accepted(work):
    code, _, err = run("check", "--vocabulary", work / "vocab.txt", "--specs", work / "specs.txt",
                       "--plan", work / "plan.txt")
    assert code == 0, err


@FUZZ
@given(bad_id=PRINTABLE.filter(lambda t: ":" not in t and "#" not in t and not ID_PATTERN.match(t.strip())))
def test_broken_vocabulary_id(work, bad_id):
    path = write_lines(work / "fuzz_vocab.txt", [VOCAB[0], bad_id + VOCAB[1][len("move_forward"):]])
    result = run("check", "--vocabulary", path, "--specs", work / "specs.txt", "--plan", work / "plan.txt")
    assert_names_line(result, path, 2)


@FUZZ
@given(
    position=st.integers(0, len(SPEC_TOKENS) - 1),
    bad=st.sampled_from(("@", "zz", "((")),
)
def test_broken_specification_token(work, position, bad):
    tokens = list(SPEC_TOKENS)
    tokens[position] = bad
    path = write_lines(work / "fuzz_specs.txt", [SPECS[0], "s2: " + " ".join(tokens)])
    result = run("check", "--vocabulary", work / "vocab.txt", "--specs", path, "--plan", work / "plan.txt")
    assert_names_line(result, path, 2)


@pytest.mark.parametrize("name", ["", "s1"])
def test_broken_specification_name(work, name):
    path = write_lines(work / "fuzz_specs.txt", [SPECS[0], name + ":" + SPECS[1].partition(":")[2]])
    result = run("check", "--vocabulary", work / "vocab.txt", "--specs", path, "--plan", work / "plan.txt")
    assert_names_line(result, path, 2)


@FUZZ
@given(
    position=st.sampled_from((1, 2, 3)),
    bad=PRINTABLE.filter(lambda t: not parses_as_float(t)),
)
def test_broken_perception_calibration_token(work, position, bad):
    # Line 2 of "k = 2\nimg_2, 1, 0.2 0.8\nimg_1, 0, 0.9 0.1": token 1 is the
    # label, tokens 2 and 3 the probabilities.
    tokens = ["img_2", "1", "0.2", "0.8"]
    tokens[position] = bad
    line = f"{tokens[0]}, {tokens[1]}, {tokens[2]} {tokens[3]}"
    path = write_lines(work / "fuzz_perception.csv", ["k = 2", line, "img_1, 0, 0.9 0.1"])
    result = run("calibrate-perception", "--input", path, "--output", work / "out")
    assert_names_line(result, path, 2)


def is_score(text):
    return parses_as_float(text) and 0.0 <= float(text) <= 1.0


@pytest.mark.parametrize("command", ["score-perception", "qq"])
@FUZZ
@given(bad=PRINTABLE.filter(lambda t: t.strip() and not is_score(t)))
def test_broken_score_line(work, command, bad):
    path = write_lines(work / "fuzz_scores.txt", ["0.1", bad])
    if command == "qq":
        argv = ["qq", "--a", work / "dist_p.txt", "--b", path]
    else:
        argv = ["score-perception", "--dist", path, "--probs", "0.9 0.1"]
    assert_names_line(run(*argv), path, 2)


# --------------------------------------------------------------------------
# Regressions: each of these once gave a traceback and exit 1, was accepted,
# or exited 2 without naming the line.
# --------------------------------------------------------------------------

RECORD = {"task": "t", "plan": "1. Wait.", "confidence": 0.9, "objects": ["car"]}
FIXTURE = json.dumps(JSON_FORMATS["fixtures"]["lines"][0])


def calibrate_decision(w, p):
    return ["calibrate-decision", "--specs", GATING, "--input", p, "--output", w / "out"]


def score_decision(w, p):
    return ["score-decision", "--dist", p, "--confidence", "0.8"]


def check_vocabulary(w, p):
    return ["check", "--vocabulary", p, "--specs", w / "specs.txt", "--plan", w / "plan.txt"]


# Each file's bad line is its last one; a file without content lines names only its path.
REGRESSIONS = {
    "plan is a number": (calibrate_decision, [json.dumps(RECORD), "", json.dumps({**RECORD, "plan": 5})]),
    "objects item is a number": (calibrate_decision, [json.dumps({**RECORD, "objects": [1]})]),
    "confidence is a string": (calibrate_decision, [json.dumps({**RECORD, "confidence": "0.9"})]),
    "objects is a string": (calibrate_decision, [json.dumps(RECORD), json.dumps({**RECORD, "objects": "car"})]),
    "record is a JSON list": (calibrate_decision, [json.dumps(RECORD), "[1, 2]"]),
    "record is bad JSON": (calibrate_decision, [json.dumps(RECORD), "", '{"plan": ']),
    "dpo record without plan": (
        lambda w, p: ["dpo", "--specs", GATING, "--input", p, "--output", w / "out"],
        [json.dumps({"plan": "1. Wait."}), json.dumps({"image_id": "i", "confidence": 0.9})],
    ),
    "fixture is a JSON list": (JSON_FORMATS["fixtures"]["argv"], [FIXTURE, '["img", "go", "plan"]']),
    "fixture without mode": (
        JSON_FORMATS["fixtures"]["argv"], [FIXTURE, json.dumps({"image": "img", "task": "go", "plan": "1. Wait."})]
    ),
    "bad float in a distribution": (
        lambda w, p: ["score-perception", "--dist", p, "--probs", "0.9 0.1"], ["0.1", "", "0.x"]
    ),
    "empty distribution": (score_decision, []),
    "blank-only distribution": (score_decision, ["", " \t"]),
    "bad class count header": (
        lambda w, p: ["calibrate-perception", "--input", p, "--output", w / "out"], ["# comment", "", "k = two"]
    ),
    "non-int perception label": (
        lambda w, p: ["calibrate-perception", "--input", p, "--output", w / "out"],
        ["k = 2", "img_1, 0, 0.9 0.1", "# comment", "img_2, x, 0.9 0.1"],
    ),
    "bad vocabulary id": (check_vocabulary, ["wait: hold on # comment", "", "Move-Forward: go ahead"]),
    "duplicate vocabulary id": (check_vocabulary, ["wait: hold on", "move_forward: go ahead", "# comment", "wait: pause"]),
    "alias shared by two vocabulary ids": (check_vocabulary, ["wait: hold on", "", "move_forward: go ahead; Hold  on"]),
    "specification syntax error": (
        lambda w, p: ["check", "--vocabulary", w / "vocab.txt", "--specs", p, "--plan", w / "plan.txt"],
        ["# comment", "s1: F wait", "s2: G (wait ->"],
    ),
}


@pytest.mark.parametrize("case", sorted(REGRESSIONS))
def test_regression_names_the_line(work, case):
    argv, lines = REGRESSIONS[case]
    path = write_lines(work / "regression.txt", lines)
    lineno = len(lines) if any(map(str.strip, lines)) else None
    assert_names_line(run(*argv(work, path)), path, lineno)


def test_calibration_line_numbers_count_blank_and_comment_lines(tmp_path):
    path = write_lines(tmp_path / "cal.csv", ["k = 2", "", "# comment", "", "img_1, 0, 0.9 0.9"])
    with pytest.raises(ConfidenceVectorError, match=f"^{re.escape(str(path))}:5: "):
        load_perception_calibration(path)


# --------------------------------------------------------------------------
# The reader itself
# --------------------------------------------------------------------------

def test_error_types_survive_the_line_prefix(tmp_path):
    specs = write_lines(tmp_path / "specs.txt", ["s1: F wait", "s2: G (wait"])
    vocab = Vocabulary.load(write_lines(tmp_path / "vocab.txt", VOCAB))
    with pytest.raises(LtlSyntaxError, match=f"^{re.escape(str(specs))}:2: ") as info:
        load_specifications(specs, vocab)
    with pytest.raises(LtlSyntaxError) as direct:
        parse_formula(" G (wait", vocab)
    assert info.value.offset == direct.value.offset
    bad_vocab = write_lines(tmp_path / "bad_vocab.txt", ["wait: hold on", "Wait: pause"])
    with pytest.raises(VocabularyError, match=f"^{re.escape(str(bad_vocab))}:2: "):
        Vocabulary.load(bad_vocab)


def test_reader_strips_and_skips_blank_lines_and_locates_only_while_a_line_is_current(tmp_path):
    path = tmp_path / "lines.txt"
    path.write_text("  a \n\n \t\nb\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:4: bad b$"):
        with numbered_lines(path) as lines:
            for line in lines:
                if line == "b":
                    raise ValueError("bad b")
    with pytest.raises(ValueError, match="^after the last line$"):
        with numbered_lines(path) as lines:
            assert list(lines) == ["a", "b"]
            raise ValueError("after the last line")
