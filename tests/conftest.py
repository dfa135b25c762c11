"""Shared fixtures: the published reference grid used for regression checks.

tests/data/reference_grid.tsv holds the 360 published (k, delta_u, sigma, P_r,
gamma) -> (p, q, r_squared, takeoff) rows verbatim from the source document,
decimal commas included; load_reference_grid normalizes them to floats.

The checkout's `src` is put first on PYTHONPATH, so the tests that start
`python -m diffusim.cli` in a child process import the same package as the
tests themselves without an installed copy.

Each test, and the setup of each fixture wider than a test, runs under a
time limit, so a hang (a rejection loop that never ends, say) fails its test
instead of stalling the suite.
"""

from __future__ import annotations

import contextlib
import os
import pathlib
import signal
from typing import NamedTuple

import pytest

DATA_DIR = pathlib.Path(__file__).parent / "data"
SRC_DIR = pathlib.Path(__file__).resolve().parent.parent / "src"

os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")])
)


class ReferenceRow(NamedTuple):
    k: int
    delta_u: float
    sigma: str  # "compact" | "intermediate" | "uniform"
    p_r: float
    gamma: int
    p: float
    q: float
    r_squared: float
    takeoff: float


def _num(cell: str) -> float:
    return float(cell.replace(",", "."))


def load_reference_grid() -> list[ReferenceRow]:
    lines = (DATA_DIR / "reference_grid.tsv").read_text(encoding="utf-8").splitlines()
    rows = []
    for line in lines[1:]:
        if not line.strip():
            continue
        c = line.split("\t")
        rows.append(
            ReferenceRow(
                k=int(c[0]),
                delta_u=_num(c[1]),
                sigma=c[2].lower(),
                p_r=_num(c[3]),
                gamma=int(c[4]),
                p=_num(c[5]),
                q=_num(c[6]),
                r_squared=_num(c[7]),
                takeoff=_num(c[8]),
            )
        )
    return rows


@pytest.fixture(scope="session")
def reference_grid() -> list[ReferenceRow]:
    rows = load_reference_grid()
    assert len(rows) == 360
    return rows


TEST_TIME_LIMIT_S = 120  # the slowest test takes about 5 s


class TimeLimitExceeded(BaseException):
    """A test ran past TEST_TIME_LIMIT_S. Not an Exception, so code under
    test (hypothesis, which would rerun a failing example to shrink it,
    among it) lets it through and the test fails at once."""


@contextlib.contextmanager
def _time_limit():
    """Arm SIGALRM for the block; where SIGALRM does not exist the block runs
    without a limit."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeLimitExceeded(f"test ran past its {TEST_TIME_LIMIT_S} s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(autouse=True)
def time_limit():
    """The limit over the test's own run: its function-scoped fixtures and
    its call."""
    with _time_limit():
        yield


@pytest.hookimpl(wrapper=True)
def pytest_fixture_setup(fixturedef, request):
    """The limit over the setup of a class-, module-, package- or
    session-scoped fixture (the acceptance sweep, say): pytest sets those up
    before the test's function-scoped `time_limit`."""
    if fixturedef.scope == "function":
        return (yield)
    with _time_limit():
        return (yield)
