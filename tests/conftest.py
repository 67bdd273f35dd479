"""Shared test settings: one fixed hypothesis profile for every property test,
and a wall-clock limit for tests of calls that once never returned.

Derandomized and without an example database, so each run draws the same
examples and tier 1 stays deterministic; ``max_examples`` bounds its time.
"""
import contextlib
import signal

import pytest
from hypothesis import settings

settings.register_profile("varpert", derandomize=True, database=None,
                          deadline=None, max_examples=1000)
settings.load_profile("varpert")


@pytest.fixture(scope="session")
def time_limit():
    """``time_limit(seconds)``: a context that fails the test, instead of
    stalling the run, when its body outlasts ``seconds``."""
    @contextlib.contextmanager
    def limit(seconds):
        def expire(signum, frame):
            pytest.fail(f"did not return or raise within {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    return limit
