"""A time guard for every test: a runaway loop ends the run with a traceback.

The slowest test takes a few seconds, while a solver loop that no longer
converges can run for hours.  Each test arms ``faulthandler`` to dump every
thread's traceback and exit the process once it has run LIMIT seconds of
wall time, so a stuck run names the loop it is stuck in.  The guard only
adds a failure mode; it loosens no assertion or budget.

pytest redirects file descriptor 2 while a test runs, so the dump goes to a
copy of the terminal's stderr taken at start-up, when nothing is redirected.
"""

import faulthandler
import os

import pytest

LIMIT = 120  # seconds; the slowest test takes under 5 s on a 2-core x86_64 box

_terminal = None


def pytest_configure(config):
    global _terminal
    _terminal = os.fdopen(os.dup(2), "w")


def pytest_unconfigure(config):
    if _terminal is not None:
        _terminal.close()


@pytest.fixture(autouse=True)
def time_guard():
    faulthandler.dump_traceback_later(LIMIT, exit=True, file=_terminal)
    yield
    faulthandler.cancel_dump_traceback_later()
