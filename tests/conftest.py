import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make oracles importable

from mildns import GridSpec, random_divfree


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test that leaves a thread it started running (a pool or
    executor never shut down, say)."""
    before = set(threading.enumerate())
    yield
    leaked = [t for t in threading.enumerate() if t not in before]
    for t in leaked:
        t.join(timeout=1.0)  # grace for a thread that is already exiting
    alive = [t.name for t in leaked if t.is_alive()]
    assert not alive, f"test left threads running: {alive}"


@pytest.fixture(scope="session")
def grid8():
    return GridSpec(8)


@pytest.fixture(scope="session")
def grid16():
    return GridSpec(16)


@pytest.fixture(scope="session")
def rand16(grid16):
    return random_divfree(1.0, 7, 2.0, grid16)


@pytest.fixture(scope="session")
def rand8(grid8):
    return random_divfree(1.0, 7, 2.0, grid8)
