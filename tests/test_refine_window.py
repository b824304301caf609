"""Refinement with several pairs' model queries in flight at once.

Every window size must give the serial loop's dataset bytes and report; pairs
drawn past the stop point must leave no trace but their audited requests; and
no request or thread may outlive the call.
"""
import json
import random
import tempfile
import threading
import time
from pathlib import Path

import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from plancheck import bundled_path
from plancheck.clients import (
    ClientError,
    FixtureMissError,
    HttpModelClient,
    ReplayModelClient,
    StubModelServer,
    load_replay_fixtures,
    query_plan,
    query_satisfaction,
)
from plancheck.conformal import ConfidenceVectorError
from plancheck.fmdp import PlanRecord, verify_plan
from plancheck.interventions import (
    BudgetExhaustedError,
    Detection,
    Observation,
    RefinementDatum,
    RefinementReport,
    generate_refinement_dataset,
    image_uncertainty,
    load_scenarios,
    save_refinement_dataset,
)

WINDOWS = (1, 2, 4, 8)
JOIN_S = 60.0  # a stuck window fails the test after this long instead of hanging


def serial_refinement(task_bank, images, client, vocab, specs, dist, sample_size, t_p, budget, seed):
    """The one-pair-at-a-time loop that the windowed one must reproduce."""
    rng = random.Random(seed)
    data = []
    skipped = spec_failures = unencodable = model_errors = iterations = 0
    while iterations < budget and len(data) < sample_size:
        iterations += 1
        obs = images[rng.randrange(len(images))]
        task = task_bank[rng.randrange(len(task_bank))]
        u_p = image_uncertainty(obs, dist)
        if u_p < t_p:
            skipped += 1
            continue
        try:
            plan = query_plan(client, obs.image_id, task)
            confidence = query_satisfaction(client, plan, specs.text(), image=obs.image_id, task=task)
        except ClientError:
            model_errors += 1
            continue
        record = PlanRecord(plan=plan, confidence=confidence, observed=obs.reported_labels(), task=task)
        assessment = verify_plan(record, specs, vocab)
        if not assessment.encodable:
            unencodable += 1
            continue
        if not assessment.satisfied_all:
            spec_failures += 1
            continue
        data.append(
            RefinementDatum(
                image_id=obs.image_id,
                task=task,
                plan=plan,
                u_p=u_p,
                verdicts=tuple((name, v.holds) for name, v in assessment.verdicts),
                confidence=confidence,
            )
        )
    report = RefinementReport(
        iterations=iterations,
        collected=len(data),
        skipped_low_perception=skipped,
        spec_failures=spec_failures,
        unencodable=unencodable,
        model_errors=model_errors,
    )
    if len(data) < sample_size:
        raise BudgetExhaustedError("budget exhausted", partial=data, report=report)
    return data, report


def bounded(fn, *args, **kwargs):
    """Run ``fn`` on its own thread, joined with a timeout, and return what it
    returned or raise what it raised."""
    box = {}

    def target():
        try:
            box["value"] = fn(*args, **kwargs)
        except BaseException as exc:  # re-raised on the test's thread
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(JOIN_S)
    assert not thread.is_alive(), f"call still running after {JOIN_S} s"
    if "error" in box:
        raise box["error"]
    return box["value"]


def outcome(fn, *args, **kwargs):
    """(dataset bytes, report) of a run, exhausted or not, or the error it raised."""
    try:
        data, report = bounded(fn, *args, **kwargs)
        exhausted = False
    except BudgetExhaustedError as exc:
        data, report, exhausted = exc.partial, exc.report, True
    except Exception as exc:
        return ("raised", type(exc), str(exc))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "refine.jsonl"
        save_refinement_dataset(path, data)
        return (path.read_bytes(), report, exhausted)


def audited_keys(path: Path) -> list[tuple[str, str, str]]:
    if not path.exists():  # nothing was queried
        return []
    entries = [json.loads(line) for line in path.read_text().splitlines()]
    return [(e["image"], e["task"], e["mode"]) for e in entries]


def wait_for_threads(baseline: int) -> None:
    deadline = time.monotonic() + 5.0
    while threading.active_count() > baseline and time.monotonic() < deadline:
        time.sleep(0.01)
    assert threading.active_count() == baseline


@pytest.fixture(scope="module")
def refine_inputs(driving_vocab, gating_specs, perception_dist):
    """Bundled images and tasks over fixtures that give every per-pair outcome:
    a plan miss, a satisfaction miss, an unencodable plan, a violating plan
    (img_r2 on the third task) and compliant plans."""
    images = [s.observations[0] for s in load_scenarios(bundled_path("refine_images.jsonl"))]
    tasks = [t.strip() for t in bundled_path("task_bank.txt").read_text().splitlines() if t.strip()]
    fixtures = []
    for f in load_replay_fixtures(bundled_path("replay_fixtures.jsonl")):
        key = (f["image"], f["task"], f["mode"])
        if key in ((("img_r1", tasks[1], "plan")), ("img_r4", tasks[0], "satisfaction")):
            continue
        if key == ("img_r4", tasks[2], "plan"):
            f = {**f, "plan": "1. Sing a song."}
        fixtures.append(f)
    return images, tasks, fixtures, driving_vocab, gating_specs, perception_dist


@pytest.fixture(scope="module")
def stub(refine_inputs):
    with StubModelServer(refine_inputs[2]) as server:
        yield server


runs = given(
    seed=st.integers(0, 10_000),
    sample_size=st.integers(1, 6),
    extra=st.integers(0, 20),
    t_p=st.sampled_from([0.5, 0.7]),
)


class TestWindowEquivalence:
    @settings(max_examples=40, deadline=None)
    @runs
    def test_replay_matches_serial_for_every_window(self, refine_inputs, seed, sample_size, extra, t_p):
        images, tasks, fixtures, vocab, specs, dist = refine_inputs
        args = (sample_size, t_p, sample_size + extra, seed)
        with tempfile.TemporaryDirectory() as tmp:
            serial_audit, windowed_audit = Path(tmp) / "serial.jsonl", Path(tmp) / "windowed.jsonl"
            want = outcome(
                serial_refinement, tasks, images, ReplayModelClient(fixtures, serial_audit),
                vocab, specs, dist, *args,
            )
            for k in WINDOWS:
                client = ReplayModelClient(fixtures, windowed_audit if k == 1 else None)
                client.max_in_flight = k
                assert outcome(
                    generate_refinement_dataset, tasks, images, client, vocab, specs, dist, *args
                ) == want, k
            assert audited_keys(windowed_audit) == audited_keys(serial_audit)

    @settings(max_examples=20, deadline=None)
    @runs
    def test_http_matches_serial_for_every_window(self, refine_inputs, stub, seed, sample_size, extra, t_p):
        images, tasks, fixtures, vocab, specs, dist = refine_inputs
        args = (sample_size, t_p, sample_size + extra, seed)
        with tempfile.TemporaryDirectory() as tmp:
            serial_audit, windowed_audit = Path(tmp) / "serial.jsonl", Path(tmp) / "windowed.jsonl"
            serial_client = HttpModelClient(stub.url, timeout=5.0, audit_path=serial_audit)
            want = outcome(serial_refinement, tasks, images, serial_client, vocab, specs, dist, *args)
            for k in WINDOWS:
                client = HttpModelClient(
                    stub.url, timeout=5.0, max_in_flight=k,
                    audit_path=windowed_audit if k == 1 else None,
                )
                assert outcome(
                    generate_refinement_dataset, tasks, images, client, vocab, specs, dist, *args
                ) == want, k
            assert audited_keys(windowed_audit) == audited_keys(serial_audit)

    def test_window_sizes_default_to_client_kind(self):
        assert ReplayModelClient([]).max_in_flight == 1
        assert HttpModelClient("http://127.0.0.1:9/").max_in_flight == 4
        with pytest.raises(ValueError, match="max_in_flight"):
            HttpModelClient("http://127.0.0.1:9/", max_in_flight=0)


class RaisingClient(ReplayModelClient):
    """Replay client that raises for two scripted image ids."""

    def request(self, query):
        if query.image == "img_boom":
            raise RuntimeError("model crashed")
        if query.image == "img_miss":
            raise FixtureMissError("no fixture")
        return super().request(query)


def seed_drawing(prefix: list[int], n_images: int) -> int:
    """The first seed whose first image draws are ``prefix`` (one task)."""
    for seed in range(100_000):
        rng = random.Random(seed)
        draws = []
        for _ in prefix:
            draws.append(rng.randrange(n_images))
            rng.randrange(1)
        if draws == prefix:
            return seed
    raise AssertionError(f"no seed draws {prefix}")


class TestSpeculation:
    @pytest.fixture
    def scripted(self, refine_inputs):
        images, tasks, fixtures, vocab, specs, dist = refine_inputs
        good = next(i for i in images if i.image_id == "img_r1")
        scripted_images = [
            good,
            Observation("img_bad", (Detection("car", (0.9, 0.9)),)),  # probs sum to 1.8
            Observation("img_boom", good.detections),
            Observation("img_miss", good.detections),
        ]
        client = RaisingClient(fixtures)
        client.max_in_flight = 4
        return scripted_images, [tasks[0]], client, vocab, specs, dist

    def test_errors_past_the_stop_point_are_dropped(self, scripted):
        images, tasks, client, vocab, specs, dist = scripted
        # good, then a miss, a crash and an unscorable image, all speculative
        seed = seed_drawing([0, 3, 2, 1], len(images))
        args = (tasks, images, client, vocab, specs, dist)
        kwargs = dict(sample_size=1, t_p=0.7, budget=10, seed=seed)
        want = outcome(serial_refinement, *args, **kwargs)
        assert want[1] == RefinementReport(1, 1, 0, 0, 0, 0)
        assert outcome(generate_refinement_dataset, *args, **kwargs) == want

    def test_errors_on_committed_pairs_propagate(self, scripted):
        images, tasks, client, vocab, specs, dist = scripted
        args = (tasks, images, client, vocab, specs, dist)
        # the miss is counted, then the crash on the third pair is raised
        crash = dict(sample_size=3, t_p=0.7, budget=10, seed=seed_drawing([0, 3, 2, 1], len(images)))
        # the unscorable image on the second pair is raised
        unscorable = dict(sample_size=2, t_p=0.7, budget=10, seed=seed_drawing([0, 1, 2], len(images)))
        for kwargs, error in ((crash, RuntimeError), (unscorable, ConfidenceVectorError)):
            want = outcome(serial_refinement, *args, **kwargs)
            assert want[:2] == ("raised", error)
            assert outcome(generate_refinement_dataset, *args, **kwargs) == want

    def test_budget_exhaustion_draws_at_most_budget_pairs(self, refine_inputs):
        images, tasks, fixtures, vocab, specs, dist = refine_inputs

        class CountingImages(list):
            reads = 0

            def __getitem__(self, index):
                self.reads += 1
                return super().__getitem__(index)

        counted = CountingImages(images)
        client = ReplayModelClient(fixtures)
        client.max_in_flight = 4
        kwargs = dict(sample_size=30, t_p=0.7, budget=30, seed=7)
        with pytest.raises(BudgetExhaustedError) as info:
            bounded(generate_refinement_dataset, tasks, counted, client, vocab, specs, dist, **kwargs)
        assert info.value.report.iterations == 30
        assert counted.reads <= 30
        want = outcome(serial_refinement, tasks, images, client, vocab, specs, dist, **kwargs)
        assert outcome(generate_refinement_dataset, tasks, images, client, vocab, specs, dist, **kwargs) == want


class SlowSession(requests.Session):
    """Holds every post for a fixed model latency, so that speculative queries
    are still running when the stop point is committed."""

    def post(self, *args, **kwargs):
        time.sleep(0.02)
        return super().post(*args, **kwargs)


class TestNoLeakedWork:
    @pytest.mark.parametrize("k", [4, 8])
    def test_no_request_or_thread_outlives_the_call(self, refine_inputs, tmp_path, k):
        images, tasks, fixtures, vocab, specs, dist = refine_inputs
        audit = tmp_path / "audit.jsonl"
        with StubModelServer(fixtures) as server:
            client = HttpModelClient(
                server.url, timeout=5.0, max_in_flight=k, audit_path=audit, session=SlowSession()
            )
            baseline = threading.active_count()
            data, report = bounded(
                generate_refinement_dataset, tasks, images, client, vocab, specs, dist,
                sample_size=3, t_p=0.7, budget=60, seed=7,
            )
            posts = server.posts
            wait_for_threads(baseline)
            time.sleep(0.1)
            assert server.posts == posts
        # every request was audited, speculative ones included
        assert len(audit.read_text().splitlines()) == posts
        want = outcome(serial_refinement, tasks, images, ReplayModelClient(fixtures), vocab, specs, dist,
                       sample_size=3, t_p=0.7, budget=60, seed=7)
        assert report == want[1]

    def test_a_raising_call_leaves_no_thread(self, refine_inputs):
        images, tasks, fixtures, vocab, specs, dist = refine_inputs
        scripted = [images[0], Observation("img_bad", (Detection("car", (0.9, 0.9)),))]
        client = ReplayModelClient(fixtures)
        client.max_in_flight = 4
        baseline = threading.active_count()
        with pytest.raises(ConfidenceVectorError):
            bounded(generate_refinement_dataset, tasks[:1], scripted, client, vocab, specs, dist,
                    sample_size=5, t_p=0.7, budget=60, seed=seed_drawing([0, 0, 1], 2))
        wait_for_threads(baseline)


class TestStress:
    def test_retries_under_fast_switching_lose_no_update(self, refine_inputs, tmp_path):
        # Eight workers on fewer cores, switching threads every microsecond,
        # with every key failing once: a lost update in the stub's failure
        # table, its request count or the audit log breaks the counts below.
        import sys

        images, tasks, fixtures, vocab, specs, dist = refine_inputs
        kwargs = dict(sample_size=6, t_p=0.5, budget=80, seed=3)
        audit = tmp_path / "audit.jsonl"
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with StubModelServer(fixtures, fail_first=1) as server:
                client = HttpModelClient(
                    server.url, timeout=5.0, backoff=0.001, max_in_flight=8, audit_path=audit
                )
                got = outcome(generate_refinement_dataset, tasks, images, client, vocab, specs, dist, **kwargs)
                posts = server.posts
        finally:
            sys.setswitchinterval(interval)
        assert got == outcome(
            serial_refinement, tasks, images, ReplayModelClient(fixtures), vocab, specs, dist, **kwargs
        )
        entries = [json.loads(line) for line in audit.read_text().splitlines()]
        assert len(entries) == posts
        keys = [(e["image"], e["task"], e["mode"]) for e in entries]
        first_attempts = [e for e in entries if e["attempt"] == 1]
        # each distinct key is refused exactly once, then answered
        assert sum(1 for e in entries if e["outcome"].startswith("error: 500")) == len(set(keys))
        assert len(first_attempts) == len(entries) - len(set(keys))
