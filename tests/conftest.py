import contextlib
import sys

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    max_examples=60,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
settings.load_profile("ci")


@contextlib.contextmanager
def _default_recursion_limit():
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


@pytest.fixture(scope="session")
def default_recursion_limit():
    """A context manager whose block runs under the interpreter's default
    recursion limit.

    pytest and Hypothesis raise the limit while a test runs (Hypothesis for
    each example); the deep-input tests show the walks do not need that, so
    they run their inputs inside ``with default_recursion_limit():``.  The
    fixture is session-scoped because it holds no state, which also lets a
    Hypothesis test take it.
    """
    return _default_recursion_limit
