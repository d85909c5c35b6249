"""Fixtures shared by the test modules."""

import threading
import weakref
from concurrent.futures import Future

import pytest

from bstick import montecarlo


class FakeExecutor:
    """Stands in for ThreadPoolExecutor: runs each task at once on a
    short-lived thread of its own, one task at a time, and records the
    workers asked for, the tasks submitted and the most futures alive at
    once."""

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.submitted = 0
        self.most_alive = 0
        self._alive = weakref.WeakSet()

    def shutdown(self, wait=True, *, cancel_futures=False):
        pass

    def submit(self, fn, *args):
        self.submitted += 1
        future = Future()

        def run():
            try:
                future.set_result(fn(*args))
            except BaseException as exc:
                future.set_exception(exc)

        thread = threading.Thread(target=run)
        thread.start()
        thread.join()
        self._alive.add(future)
        self.most_alive = max(self.most_alive, len(self._alive))
        return future


@pytest.fixture
def fake_pools(monkeypatch):
    """Makes montecarlo's pools FakeExecutors; the list of those made, in order."""
    made = []

    def make(max_workers):
        made.append(FakeExecutor(max_workers))
        return made[-1]

    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", make)
    return made
