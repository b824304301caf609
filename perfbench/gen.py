"""Seeded input generators for the plancheck benchmark.

Every input a workload feeds the program is generated here from the workload
seed and written to files in the formats the package's own loaders read:
plan records (``load_plan_records``), rule files (``SpecificationSet.load``),
scene corpora and refine images (``load_scenarios``), perception calibration
rows (``load_perception_calibration``), model fixtures
(``load_replay_fixtures``) and a task bank (one task per line).  The
generators import nothing from ``plancheck``, so a change to the program
cannot change its own inputs.

Where run-to-run stability depends on a mix (plan lengths, rule shapes,
observation counts, the share of images that clear the perception threshold,
the share of compliant model replies), the mix is stratified: each block of
inputs holds every stratum in fixed proportion and the seed picks the
content.  This keeps the work per op nearly equal across seeds without
choosing inputs by how the program treats them.
"""
from __future__ import annotations

import json
import random
from bisect import bisect_right
from pathlib import Path

SET_SIZE = 200  # records per calibrate op
CALIBRATE_SETS = 200  # set 0 builds dist_d and warms up; the rest are timed
SCENES_PER_SLICE = 40
SWEEP_SLICES = 96  # slice 0 warms up
PERCEPTION_ROWS = 1000
REFINE_IMAGES = 100
REFINE_PASSING = 70  # images whose u_p clears REFINE_T_P
REFINE_T_P = 0.7
REFINE_MISSING_KEYS = 10  # (image, task) keys with no fixture: 1% of 1000
REFINE_COMPLIANT = 0.85  # fixture draws below this are compliant plans (the first 0.02 unencodable)
TASK_COUNT = 10
RULES = 1400

CLASSES = ("car", "pedestrian", "stop sign", "traffic light", "truck")
OBJECT_LABELS = (
    "car", "truck", "pedestrian", "stop sign", "traffic light",
    "green light", "red light", "bus", "bicycle",
)

# Step phrases built from the driving vocabulary's surface forms.  Each action
# maps to imperative phrasings; each object id to the surface forms a plan may
# use for it.
ACTIONS = {
    "wait": ("Wait", "Keep waiting", "Wait patiently"),
    "move_forward": ("Move forward", "Go straight", "Drive forward", "Proceed forward",
                     "Move ahead", "Move straight ahead"),
    "turn_left": ("Turn left", "Make a left turn", "Start turning left"),
    "turn_right": ("Turn right", "Make a right turn", "Start turning right"),
}
OBJECTS = {
    "red_light": ("red light", "red lights"),
    "green_light": ("green light", "green lights"),
    "traffic_light": ("traffic light", "traffic lights"),
    "stop_sign": ("stop sign", "stop signs"),
    "car": ("car", "cars", "vehicle", "vehicles"),
    "opposite_car": ("opposite car",),
    "pedestrian": ("pedestrian", "pedestrians"),
}
PREPOSITIONS = ("at the", "for the", "near the", "behind the", "past the", "before the", "after the")
ADVERBS = ("", "", "Slowly ", "Carefully ", "Then ", "Now ")
LOOKS = ("Look at the", "Watch the", "Check the", "Scan for the")
NEGATIONS = ("Do not", "Never", "Don't")
TASK_VERBS = ("turn left", "turn right", "go straight", "stop", "park")
PUNCTUATION = "-.,;:!?*"

RULE_ATOMS = (
    "car", "green_light", "move_forward", "opposite_car", "pedestrian", "red_light",
    "stop_sign", "traffic_light", "turn_left", "turn_right", "wait",
)
# One round of rule shapes (template, antecedent literals).  Every shape
# appears once, the until shape with three literals twice, so that both the
# 90th and the 95th percentile of op latency fall on the costliest shape.
RULE_ROUND = (
    ("safety", 1), ("safety", 2), ("safety", 3),
    ("next", 1), ("next", 2), ("next", 3),
    ("response", 1), ("response", 2), ("response", 3),
    ("until", 1), ("until", 2), ("until", 3), ("until", 3),
)
SWEEP_THRESHOLDS = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))


def _stream(seed: int, name: str) -> random.Random:
    return random.Random(f"plancheck-bench:{seed}:{name}")


def _blocks(rng: random.Random, values, count: int) -> list:
    """``count`` draws that hold every value in equal share per block, shuffled."""
    out: list = []
    while len(out) < count:
        block = list(values)
        rng.shuffle(block)
        out.extend(block)
    return out[:count]


# --------------------------------------------------------------------------
# Plan text
# --------------------------------------------------------------------------

def _object_phrase(rng: random.Random, obj: str) -> str:
    return f"{rng.choice(PREPOSITIONS)} {rng.choice(OBJECTS[obj])}"


def _step(rng: random.Random, labels: set[str] | None = None) -> str:
    """One step phrase; ``labels`` collects the propositions it should carry."""
    kind = rng.random()
    objs = rng.sample(sorted(OBJECTS), rng.choice((0, 1, 1, 2)))
    if kind < 0.10:  # action-less step
        objs = objs or [rng.choice(sorted(OBJECTS))]
        tail = "".join(f" {_object_phrase(rng, o)}" for o in objs[1:])
        text = f"{rng.choice(LOOKS)} {rng.choice(OBJECTS[objs[0]])}{tail}."
        if labels is not None:
            labels.update(objs)
        return text
    action = rng.choice(sorted(ACTIONS))
    body = "".join(f" {_object_phrase(rng, o)}" for o in objs)
    if kind < 0.22:  # negated action: the cue suppresses the action match
        if labels is not None:
            labels.update(objs)
        return f"{rng.choice(NEGATIONS)} {ACTIONS[action][0].lower()}{body}."
    if kind < 0.30:  # negated object in a clause of its own
        absent = rng.choice(OBJECTS[rng.choice(sorted(OBJECTS))])
        text = f"There is no {absent}, {ACTIONS[action][0].lower()}{body}."
    else:
        adverb, phrase = rng.choice(ADVERBS), rng.choice(ACTIONS[action])
        text = f"{adverb}{phrase[0].lower()}{phrase[1:]}{body}." if adverb else f"{phrase}{body}."
    if labels is not None:
        labels.add(action)
        labels.update(objs)
    return text


def _join(rng: random.Random, steps: list[str]) -> str:
    if rng.random() < 0.5:
        return "\n".join(f"{i}. {s}" for i, s in enumerate(steps, start=1))
    return " ".join(steps)


def plan_text(rng: random.Random, n_steps: int) -> str:
    return _join(rng, [_step(rng) for _ in range(n_steps)])


VIOLATING_STEPS = (
    "Move forward at the red light.", "Turn left at the red light.",
    "Turn left for the opposite car.", "Go straight past the pedestrian.",
    "Turn right near the pedestrians.",
)


def _complies(labels: set[str]) -> bool:
    """Whether a step with these labels keeps the bundled gating rules: no red
    light with moving forward or turning left, no opposite car with turning
    left, and a pedestrian only with waiting."""
    if "red_light" in labels and labels & {"move_forward", "turn_left"}:
        return False
    if "opposite_car" in labels and "turn_left" in labels:
        return False
    return "pedestrian" not in labels or "wait" in labels


def _compliant_step(rng: random.Random) -> str:
    while True:
        labels: set[str] = set()
        step = _step(rng, labels)
        if _complies(labels):
            return step


def compliant_plan(rng: random.Random, n_steps: int) -> str:
    return _join(rng, [_compliant_step(rng) for _ in range(n_steps)])


def violating_plan(rng: random.Random, n_steps: int) -> str:
    steps = [_compliant_step(rng) for _ in range(n_steps - 1)]
    steps.insert(rng.randrange(n_steps), rng.choice(VIOLATING_STEPS))
    return _join(rng, steps)


# --------------------------------------------------------------------------
# Plan records (calibrate, rules, sweep's dist_d)
# --------------------------------------------------------------------------

def unencodable_text(i: int) -> str:
    """A distinct plan text with no word in it, which the encoder rejects."""
    digits = "..."
    while True:
        digits += PUNCTUATION[i % len(PUNCTUATION)]
        i //= len(PUNCTUATION)
        if not i:
            return digits


def plan_records(seed: int, count: int) -> list[dict]:
    """Distinct plans of 1-8 steps (balanced per block), with ~2% unencodable
    texts and seeded observed-object sets."""
    rng = _stream(seed, "records")
    lengths = _blocks(rng, range(1, 9), count)
    seen: set[str] = set()
    records = []
    for i in range(count):
        if rng.random() < 0.02:
            plan = unencodable_text(i)
        else:
            plan = plan_text(rng, lengths[i])
            while plan in seen:
                plan = plan_text(rng, lengths[i])
        seen.add(plan)
        records.append({
            "task": "drive safely",
            "plan": plan,
            "confidence": round(rng.uniform(0.3, 1.0), 4),
            "objects": sorted(rng.sample(OBJECT_LABELS, rng.choice((0, 1, 1, 2, 2, 3)))),
        })
    return records


def write_jsonl(path: Path, rows) -> None:
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")


# --------------------------------------------------------------------------
# Rules
# --------------------------------------------------------------------------

def _literal(rng: random.Random, atom: str) -> str:
    return atom if rng.random() < 0.5 else f"!{atom}"


def rule_text(rng: random.Random, template: str, k: int) -> str:
    """``G (l1 & .. & lk -> consequent)`` over distinct atoms, at most 5 atoms."""
    atoms = rng.sample(RULE_ATOMS, k + 2)
    ante = " & ".join(_literal(rng, a) for a in atoms[:k])
    c, d = atoms[k], atoms[k + 1]
    consequent = {
        "safety": _literal(rng, c),
        "next": f"X {_literal(rng, c)}",
        "response": f"F {c}",
        "until": f"({_literal(rng, d)} U {c})",
    }[template]
    return f"G ({ante} -> {consequent})"


def rules(seed: int, count: int) -> list[str]:
    """Distinct rules in rounds of RULE_ROUND, each round shuffled."""
    rng = _stream(seed, "rules")
    seen: set[str] = set()
    out = []
    while len(out) < count:
        shapes = list(RULE_ROUND)
        rng.shuffle(shapes)
        for template, k in shapes:
            text = rule_text(rng, template, k)
            while text in seen:
                text = rule_text(rng, template, k)
            seen.add(text)
            out.append(text)
    return out[:count]


# --------------------------------------------------------------------------
# Perception: a posterior-calibrated synthetic classifier
# --------------------------------------------------------------------------

def _six(x: float) -> float:
    return round(x, 6)


def detection(rng: random.Random, classes=range(len(CLASSES)), avoid=()) -> tuple[int, int, list[float]]:
    """(true class, predicted class, probabilities).  The top probability c is
    correct with probability c, so the confidence is calibrated; a runner-up
    class takes most of the rest, as with look-alike objects."""
    k = len(CLASSES)
    while True:
        true = rng.choice(list(classes))
        c = _six(0.3 + 0.65 * rng.betavariate(1.5, 1.5))
        pred = true if rng.random() < c else rng.choice([i for i in range(k) if i != true])
        if CLASSES[pred] in avoid:
            continue
        others = [i for i in range(k) if i != pred]
        runner_up = true if pred != true and rng.random() < 0.7 else rng.choice(others)
        runner = _six((1.0 - c) * rng.uniform(0.5, 0.95))
        if runner >= c:
            continue
        rest = [i for i in others if i != runner_up]
        weights = [rng.random() + 0.05 for _ in rest]
        probs = [0.0] * k
        probs[runner_up] = runner
        for i, w in zip(rest, weights):
            probs[i] = _six((1.0 - c - runner) * w / sum(weights))
        probs[pred] = _six(1.0 - sum(probs))
        return true, pred, probs


def perception_rows(seed: int) -> list[tuple[str, int, list[float]]]:
    rng = _stream(seed, "perception")
    rows = []
    for i in range(PERCEPTION_ROWS):
        true, _, probs = detection(rng)
        rows.append((f"cal_{i:04d}", true, probs))
    return rows


def write_perception(path: Path, rows) -> None:
    lines = [f"k = {len(CLASSES)}"]
    lines += [f"{image}, {true}, {' '.join(f'{p:.6f}' for p in probs)}" for image, true, probs in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def perception_scores(rows) -> list[float]:
    """Sorted nonconformity scores, 1 - p[true], as the calibration file reads back."""
    return sorted(1.0 - float(f"{probs[true]:.6f}") for _, true, probs in rows)


def ecdf(sorted_scores: list[float], x: float) -> float:
    """Share of scores <= x: the reference for the package's ECDF."""
    return bisect_right(sorted_scores, x) / len(sorted_scores)


def detection_score(sorted_scores: list[float], probs) -> float:
    """Perception score: the ECDF at one minus the runner-up confidence."""
    return ecdf(sorted_scores, 1.0 - sorted(probs)[-2])


def _detection_json(true: int, pred: int, probs) -> dict:
    return {"label_hypothesis": CLASSES[pred], "true_label": true,
            "probs": [float(f"{p:.6f}") for p in probs]}


# --------------------------------------------------------------------------
# Sweep scenes
# --------------------------------------------------------------------------

def scenes(seed: int) -> list[dict]:
    """Slices of 40 scenes: 1-4 observations (10 each per slice), 1-3
    detections each, and 32 scenes per slice with a scripted plan."""
    rng = _stream(seed, "scenes")
    out = []
    for s in range(SWEEP_SLICES):
        n_obs = _blocks(rng, (1, 2, 3, 4), SCENES_PER_SLICE)
        with_plan = [True] * 32 + [False] * 8
        rng.shuffle(with_plan)
        conf_rank = list(range(32))
        rng.shuffle(conf_rank)
        lengths = _blocks(rng, range(1, 9), 32)
        p = 0
        for j in range(SCENES_PER_SLICE):
            scene_id = f"s{s:03d}_{j:02d}"
            observations = []
            for a in range(n_obs[j]):
                dets = [_detection_json(*detection(rng)) for _ in range(rng.randint(1, 3))]
                observations.append({"image_id": f"{scene_id}/{a + 1}", "detections": dets,
                                     "source": f"attempt-{a + 1}"})
            scene = {"scene_id": scene_id, "task": "drive to the goal", "observations": observations}
            if with_plan[j]:
                scene["plan"] = plan_text(rng, lengths[p])
                scene["confidence"] = round(0.45 + 0.55 * (conf_rank[p] + rng.random()) / 32, 4)
                p += 1
            out.append(scene)
    return out


# --------------------------------------------------------------------------
# Refine: images, task bank and model fixtures
# --------------------------------------------------------------------------

def refine_inputs(seed: int, sorted_scores: list[float]) -> tuple[list[dict], list[str], list[dict]]:
    """Images (70 of 100 clear t_p), a task bank, and plan/satisfaction
    fixtures for every (image, task) key but ten.

    Refine images carry no pedestrian hypothesis: the observed pedestrian
    labels the initial state, where the gating rule ``G (pedestrian -> wait)``
    fails for every plan, so such an image could never yield a datum.
    """
    rng = _stream(seed, "refine")
    passing, failing = [], []
    while len(passing) < REFINE_PASSING or len(failing) < REFINE_IMAGES - REFINE_PASSING:
        dets = [detection(rng, classes=(0, 2, 3, 4), avoid=("pedestrian",))
                for _ in range(rng.randint(1, 3))]
        u_p = min(detection_score(sorted_scores, probs) for _, _, probs in dets)
        bucket = passing if u_p >= REFINE_T_P else failing
        limit = REFINE_PASSING if bucket is passing else REFINE_IMAGES - REFINE_PASSING
        if len(bucket) < limit:
            bucket.append(dets)
    images = [(True, d) for d in passing] + [(False, d) for d in failing]
    rng.shuffle(images)
    image_rows = []
    for i, (_, dets) in enumerate(images):
        image_id = f"img_{i:03d}"
        image_rows.append({"scene_id": image_id, "observations": [
            {"image_id": image_id, "detections": [_detection_json(*d) for d in dets]}]})
    tasks: list[str] = []
    while len(tasks) < TASK_COUNT:
        task = f"{rng.choice(TASK_VERBS)} {_object_phrase(rng, rng.choice(sorted(OBJECTS)))}"
        if task not in tasks:
            tasks.append(task)
    passing_keys = [(i, t) for i, (ok, _) in enumerate(images) if ok for t in range(TASK_COUNT)]
    missing = set(rng.sample(passing_keys, REFINE_MISSING_KEYS))
    fixtures = []
    for i in range(len(images)):
        for t, task in enumerate(tasks):
            if (i, t) in missing:
                continue
            draw = rng.random()
            n_steps = rng.randint(1, 6)
            if draw < 0.02:
                plan = "..."
            elif draw < REFINE_COMPLIANT:
                plan = compliant_plan(rng, n_steps)
            else:
                plan = violating_plan(rng, n_steps)
            image_id = f"img_{i:03d}"
            fixtures.append({"image": image_id, "task": task, "mode": "plan", "plan": plan})
            fixtures.append({"image": image_id, "task": task, "mode": "satisfaction",
                             "plan": plan, "yes_confidence": round(rng.uniform(0.5, 0.99), 4)})
    return image_rows, tasks, fixtures


# --------------------------------------------------------------------------
# Per-workload input sets
# --------------------------------------------------------------------------

def generate(workload: str, seed: int, out: Path) -> dict[str, Path]:
    """Write one workload's inputs under ``out``; returns the file paths by role."""
    out.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}
    if workload in ("calibrate", "rules", "sweep"):
        count = SET_SIZE * (CALIBRATE_SETS if workload == "calibrate" else 1)
        paths["records"] = out / "records.jsonl"
        write_jsonl(paths["records"], plan_records(seed, count))
    if workload == "rules":
        paths["rules"] = out / "rules.txt"
        paths["rules"].write_text(
            "".join(f"r{i:04d}: {text}\n" for i, text in enumerate(rules(seed, RULES))),
            encoding="utf-8",
        )
    if workload in ("sweep", "refine"):
        rows = perception_rows(seed)
        paths["perception"] = out / "perception.csv"
        write_perception(paths["perception"], rows)
    if workload == "sweep":
        paths["scenes"] = out / "scenes.jsonl"
        write_jsonl(paths["scenes"], scenes(seed))
    if workload == "refine":
        image_rows, tasks, fixtures = refine_inputs(seed, perception_scores(rows))
        paths["images"] = out / "images.jsonl"
        write_jsonl(paths["images"], image_rows)
        paths["tasks"] = out / "tasks.txt"
        paths["tasks"].write_text("".join(t + "\n" for t in tasks), encoding="utf-8")
        paths["fixtures"] = out / "fixtures.jsonl"
        write_jsonl(paths["fixtures"], fixtures)
    return paths
