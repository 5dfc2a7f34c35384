import signal

import pytest


@pytest.fixture
def deadline():
    """Fails the test with ``TimeoutError`` once it has run 5 s, so an input
    check whose removal leaves a loop that never ends fails instead of
    hanging the suite (SIGALRM, so POSIX only)."""

    def expire(signum, frame):
        raise TimeoutError("the test ran past its 5 s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 5)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)
