"""Fixtures shared by the test modules."""

import os

import pytest

from scseg import admm


@pytest.fixture(autouse=True)
def fresh_solver_pool():
    """Every test starts and ends with no solver children, so the children a test starts run the code it patched."""
    admm._end_pool()
    yield
    admm._end_pool()


@pytest.fixture()
def no_child_or_fd_left():
    """After the test and a pool teardown, no child process and none of the file descriptors it opened are left."""
    fds = sorted(os.listdir("/proc/self/fd"))
    yield
    admm._end_pool()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert sorted(os.listdir("/proc/self/fd")) == fds
