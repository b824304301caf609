"""Transport shim for the refine workload's model client."""
from __future__ import annotations

import time

import requests


class DelaySession(requests.Session):
    """A session that sleeps a fixed model latency before each post and counts
    attempts.

    ``HttpModelClient`` posts while holding one of its ``max_in_flight``
    slots, so the delay sits inside the slot, as a real model call's would.
    """

    def __init__(self, delay_s: float):
        super().__init__()
        self.delay_s = delay_s
        self.attempts = 0

    def post(self, *args, **kwargs):
        self.attempts += 1
        time.sleep(self.delay_s)
        return super().post(*args, **kwargs)
