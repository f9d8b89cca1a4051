"""The per-test time limit of a ``scripts/mutate.py`` mutant run, as a pytest plugin.

    MUTATE_LIMITS=FILE python3 -m pytest -p mutate_timer ...

with this directory on ``PYTHONPATH`` and ``FILE`` a JSON object of test id to
seconds. A test that runs past its limit, setup to teardown, ends the process:
faulthandler writes its ``Timeout (...)!`` banner and every thread's stack to
stderr, and exits with status 1. A test the file does not name has no limit.
"""

from __future__ import annotations

import faulthandler
import json
import os

# A -p plugin loads before pytest captures fd 2, so this is the process's own stderr.
_STDERR = os.dup(2)
with open(os.environ["MUTATE_LIMITS"], encoding="utf-8") as fh:
    _LIMITS = json.load(fh)


def pytest_runtest_logstart(nodeid, location):
    if nodeid in _LIMITS:
        faulthandler.dump_traceback_later(_LIMITS[nodeid], exit=True, file=_STDERR)


def pytest_runtest_logfinish(nodeid, location):
    faulthandler.cancel_dump_traceback_later()
