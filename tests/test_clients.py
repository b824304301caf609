"""Replay and HTTP model clients, audit logging, and the stub server."""
import json

import pytest
import requests

from plancheck.clients import (
    ConfidenceOutOfRangeError,
    FixtureMissError,
    HttpModelClient,
    MalformedReplyError,
    ModelQuery,
    ReplayModelClient,
    StubModelServer,
    TransportError,
    load_replay_fixtures,
    query_plan,
    query_satisfaction,
)

FIXTURES = [
    {
        "image": "img_007",
        "task": "turn right at the traffic light",
        "mode": "plan",
        "plan": "1. Wait for the light.\n2. Turn right.",
    },
    {
        "image": "img_007",
        "task": "turn right at the traffic light",
        "mode": "satisfaction",
        "yes_confidence": 0.92,
    },
]


@pytest.fixture
def replay_client():
    return ReplayModelClient(FIXTURES)


class TestReplayClient:
    def test_plan_passthrough(self, replay_client):
        plan = query_plan(replay_client, "img_007", "turn right at the traffic light")
        assert plan == "1. Wait for the light.\n2. Turn right."

    def test_satisfaction_passthrough(self, replay_client):
        confidence = query_satisfaction(
            replay_client, "1. Turn right.", "rules", image="img_007",
            task="turn right at the traffic light",
        )
        assert confidence == 0.92

    def test_fixture_miss_names_key(self, replay_client):
        with pytest.raises(FixtureMissError, match="img_404"):
            query_plan(replay_client, "img_404", "turn left")

    def test_pure_across_instances(self, tmp_path):
        path = tmp_path / "fixtures.jsonl"
        path.write_text("\n".join(json.dumps(f) for f in FIXTURES) + "\n")
        first = ReplayModelClient(path)
        second = ReplayModelClient(load_replay_fixtures(path))
        for client in (first, second):
            plan = query_plan(client, "img_007", "turn right at the traffic light")
            assert plan.startswith("1. Wait")

    def test_empty_task_rejected(self, replay_client):
        with pytest.raises(ValueError):
            query_plan(replay_client, "img_007", "   ")

    def test_empty_plan_rejected_for_satisfaction(self, replay_client):
        with pytest.raises(ValueError):
            query_satisfaction(replay_client, "", "rules")


class TestValidation:
    def test_out_of_range_confidence(self):
        client = ReplayModelClient(
            [{"image": "i", "task": "t", "mode": "satisfaction", "yes_confidence": 1.3}]
        )
        with pytest.raises(ConfidenceOutOfRangeError):
            query_satisfaction(client, "1. Wait.", "rules", image="i", task="t")

    def test_missing_plan_field(self):
        client = ReplayModelClient([{"image": "i", "task": "t", "mode": "plan"}])
        with pytest.raises(MalformedReplyError):
            query_plan(client, "i", "t")

    def test_boolean_confidence_rejected(self):
        client = ReplayModelClient(
            [{"image": "i", "task": "t", "mode": "satisfaction", "yes_confidence": True}]
        )
        with pytest.raises(MalformedReplyError):
            query_satisfaction(client, "1. Wait.", "rules", image="i", task="t")


    @pytest.mark.parametrize("reply", [["1. Wait."], "1. Wait.", None])
    def test_reply_that_is_not_an_object(self, reply):
        class ListClient:
            def request(self, query):
                return reply

        with pytest.raises(MalformedReplyError):
            query_plan(ListClient(), "i", "t")
        with pytest.raises(MalformedReplyError):
            query_satisfaction(ListClient(), "1. Wait.", "rules", image="i", task="t")


class TestFixtureFile:
    def test_reply_fields_are_not_checked_at_load(self, tmp_path):
        path = tmp_path / "fixtures.jsonl"
        path.write_text(json.dumps({"image": "i", "task": "t", "mode": "plan", "plan": 5}) + "\n")
        assert load_replay_fixtures(path) == [{"image": "i", "task": "t", "mode": "plan", "plan": 5}]
        with pytest.raises(MalformedReplyError):
            query_plan(ReplayModelClient(path), "i", "t")

    @pytest.mark.parametrize("key", ["image", "task", "mode"])
    def test_key_field_checked_at_load(self, tmp_path, key):
        fixture = {"image": "i", "task": "t", "mode": "plan", "plan": "1. Wait."}
        path = tmp_path / "fixtures.jsonl"
        path.write_text(json.dumps(fixture) + "\n\n" + json.dumps({**fixture, key: 7}) + "\n")
        with pytest.raises(ValueError) as info:
            load_replay_fixtures(path)
        assert str(info.value).startswith(f"{path}:3: mistyped '{key}'")


class TestHttpClient:
    def test_equivalent_to_replay_on_same_fixtures(self, replay_client):
        with StubModelServer(FIXTURES) as server:
            http_client = HttpModelClient(server.url, timeout=5.0, backoff=0.01)
            for client in (replay_client, http_client):
                plan = query_plan(client, "img_007", "turn right at the traffic light")
                confidence = query_satisfaction(
                    client, plan, "rules", image="img_007",
                    task="turn right at the traffic light",
                )
                assert plan == FIXTURES[0]["plan"]
                assert confidence == 0.92

    def test_retry_then_success_audits_each_attempt(self, tmp_path):
        audit = tmp_path / "audit.jsonl"
        with StubModelServer(FIXTURES, fail_first=1) as server:
            client = HttpModelClient(server.url, timeout=5.0, backoff=0.01, audit_path=audit)
            plan = query_plan(client, "img_007", "turn right at the traffic light")
            assert plan == FIXTURES[0]["plan"]
        entries = [json.loads(l) for l in audit.read_text().splitlines()]
        assert len(entries) == 2
        assert entries[0]["outcome"].startswith("error")
        assert entries[1]["outcome"] == "ok"
        for entry in entries:
            assert {"ts", "image", "task", "mode", "outcome", "latency_ms", "attempt"} <= set(entry)

    @pytest.mark.parametrize("fail_first, attempts", [(0, 1), (1, 2)])
    def test_client_error_is_not_retried(self, tmp_path, monkeypatch, fail_first, attempts):
        import plancheck.clients as clients

        class CountingSession(requests.Session):
            posts = 0

            def post(self, *args, **kwargs):
                self.posts += 1
                return super().post(*args, **kwargs)

        sleeps = []
        monkeypatch.setattr(clients.time, "sleep", sleeps.append)
        audit = tmp_path / "audit.jsonl"
        session = CountingSession()
        with StubModelServer(FIXTURES, fail_first=fail_first) as server:
            client = HttpModelClient(server.url, timeout=5.0, audit_path=audit, session=session)
            with pytest.raises(TransportError, match="404"):
                query_plan(client, "missing", "turn right at the traffic light")
        entries = [json.loads(l) for l in audit.read_text().splitlines()]
        # A 500 is retried after one backoff; the 404 behind it is final.
        assert session.posts == len(entries) == attempts
        assert [e["attempt"] for e in entries] == list(range(1, attempts + 1))
        assert len(sleeps) == attempts - 1

    def test_backoff_is_jittered_within_its_cap(self, monkeypatch):
        import random

        import plancheck.clients as clients

        sleeps = []
        monkeypatch.setattr(clients.time, "sleep", sleeps.append)
        random.seed(5)
        sampler_state = random.getstate()
        with StubModelServer(FIXTURES, fail_first=3) as server:
            client = HttpModelClient(server.url, timeout=5.0, retries=3, backoff=0.4)
            plan = query_plan(client, "img_007", "turn right at the traffic light")
            query_satisfaction(client, plan, "rules", image="img_007", task="turn right at the traffic light")
        caps = [0.4 * 2 ** (attempt - 1) for attempt in (1, 2, 3)] * 2  # per query
        assert len(sleeps) == len(caps)
        assert all(0.0 < delay <= cap for delay, cap in zip(sleeps, caps)), sleeps
        assert sleeps != caps
        assert random.getstate() == sampler_state  # the seeded sampler's stream is untouched

    def test_stub_accepts_a_burst_of_connections(self):
        # Each request opens its own connection; a listen backlog too short
        # for the burst would drop some into the 1 s TCP retry.
        import threading
        import time

        plans = []
        with StubModelServer(FIXTURES) as server:
            client = HttpModelClient(server.url, timeout=5.0, max_in_flight=32)
            threads = [
                threading.Thread(
                    target=lambda: plans.append(query_plan(client, "img_007", "turn right at the traffic light"))
                )
                for _ in range(32)
            ]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10.0)
            elapsed = time.perf_counter() - start
        assert len(plans) == 32
        assert elapsed < 0.9, f"a burst of 32 requests took {elapsed:.2f} s"

    def test_exhausted_retries_raise_transport_error(self):
        with StubModelServer(FIXTURES, fail_first=10) as server:
            client = HttpModelClient(server.url, timeout=5.0, retries=1, backoff=0.01)
            with pytest.raises(TransportError):
                query_plan(client, "img_007", "turn right at the traffic light")


class TestAuditLog:
    def test_replay_appends_line_per_request(self, tmp_path):
        audit = tmp_path / "audit.jsonl"
        client = ReplayModelClient(FIXTURES, audit_path=audit)
        query_plan(client, "img_007", "turn right at the traffic light")
        with pytest.raises(FixtureMissError):
            query_plan(client, "missing", "turn right at the traffic light")
        entries = [json.loads(l) for l in audit.read_text().splitlines()]
        assert [e["outcome"] for e in entries] == ["ok", "fixture-miss"]


class TestModelQuery:
    def test_payload_shape(self):
        query = ModelQuery(
            image="img", task="go", mode="satisfaction", plan="1. Wait.", specs_text="rules"
        )
        payload = query.payload()
        assert payload == {
            "mode": "satisfaction",
            "image": "img",
            "task": "go",
            "preamble_id": "driving-v1",
            "plan": "1. Wait.",
            "specs_text": "rules",
        }
