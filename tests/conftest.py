import contextlib
import functools
import os
import resource
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, settings

import aspsigma

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


def _run_cli(args, timeout: float = 10.0, memory: int = 1 << 30):
    """Run ``python -m aspsigma.cli *args`` in a child process whose address
    space is limited to ``memory`` bytes, for at most ``timeout`` seconds.

    Returns the exit code, the standard output and the standard error, or
    ``(None, "", "")`` when the run was killed at the timeout.  A regression
    that hangs or allocates without bound then fails in seconds, not at the
    job's timeout.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(aspsigma.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "aspsigma.cli", *args],
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout,
            preexec_fn=functools.partial(
                resource.setrlimit, resource.RLIMIT_AS, (memory, memory)
            ),
        )
    except subprocess.TimeoutExpired:
        return None, "", ""
    return done.returncode, done.stdout, done.stderr


@pytest.fixture(scope="session")
def bounded_cli():
    """``_run_cli``: the CLI in a child process with a wall-clock timeout and
    an address-space limit set in the child only."""
    return _run_cli
