import os
import signal
import warnings

import pytest

from denjoy_twist import cli
from denjoy_twist.reporting import fork_map
from denjoy_twist.sequences import ConstructionError


@pytest.fixture
def four_cpus(monkeypatch):
    """The process may run on four CPUs, so fork_map forks whatever the
    machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_results_in_item_order(four_cpus, n):
    # 5 items on 4 CPUs: a share of one item in the parent and three
    # children, the last with two
    out = fork_map(lambda x: (x * x, os.getpid()), range(n))
    assert [sq for sq, _ in out] == [x * x for x in range(n)]
    assert out[0][1] == os.getpid()
    assert len({pid for _, pid in out}) == min(n, 4)
    _no_child_left()


def test_child_exception_reaches_the_parent(four_cpus):
    def fn(x):
        if x == 2:
            raise ConstructionError(f"item {x} refused in {os.getpid()}")
        return x

    with pytest.raises(ConstructionError, match=r"^item 2 refused in \d+$") as err:
        fork_map(fn, range(4))
    assert str(err.value) != f"item 2 refused in {os.getpid()}"
    _no_child_left()


def test_child_exception_exits_2_through_the_cli(tmp_path, capsys, monkeypatch,
                                                 four_cpus):
    # build's three CSV writers on four CPUs: gaps.csv is written in a child
    def refuse(table, path):
        raise ConstructionError(f"gaps.csv refused in {os.getpid()}")

    monkeypatch.setattr(cli, "dump_gap_table_csv", refuse)
    assert cli.main(["build", "--set", "params.M=16", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: gaps.csv refused in ") and "Traceback" not in err
    assert err != f"error: gaps.csv refused in {os.getpid()}\n"
    _no_child_left()


def _timeout(signum, frame):
    raise TimeoutError("fork_map did not return")


def test_parent_failure_with_a_full_pipe_reaps_its_child(four_cpus):
    # the child's 1 MiB result fills its pipe (64 KiB) and blocks it until
    # the parent closes the read end, which must come before the reaping
    def fn(x):
        if x == 0:
            raise ValueError("the parent's share failed")
        return b"\0" * 2**20

    old = signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(30)
    try:
        with pytest.raises(ValueError, match="the parent's share failed"):
            fork_map(fn, range(2))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    _no_child_left()


def _refuse_fork():
    raise AssertionError("os.fork called")


def test_one_cpu_does_not_fork(monkeypatch, one_cpu):
    monkeypatch.setattr(os, "fork", _refuse_fork)
    assert fork_map(lambda x: x + 1, range(5)) == [1, 2, 3, 4, 5]


def test_no_fork_where_the_platform_has_none(monkeypatch, four_cpus):
    monkeypatch.delattr(os, "fork")
    assert fork_map(lambda x: x + 1, range(5)) == [1, 2, 3, 4, 5]


def test_fork_warning_is_ignored(monkeypatch, four_cpus):
    # Python 3.12 and later warn in the parent at each fork of a process with
    # more than one thread, and numpy's BLAS pool is one; the suite makes
    # that warning an error, raised after the child exists
    fork = os.fork

    def warning_fork():
        pid = fork()
        if pid:
            warnings.warn("This process is multi-threaded, use of fork() may "
                          "lead to deadlocks in the child.", DeprecationWarning)
        return pid

    monkeypatch.setattr(os, "fork", warning_fork)
    assert fork_map(lambda x: x + 1, range(4)) == [1, 2, 3, 4]
    _no_child_left()


def _open_fds():
    return len(os.listdir(f"/proc/{os.getpid()}/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc")
@pytest.mark.parametrize("exc", [OSError, KeyboardInterrupt])
def test_failed_fork_closes_its_pipe(monkeypatch, four_cpus, exc):
    # the second fork fails: the first child is reaped and no pipe end is
    # left open, whatever the failure's type
    fork, forks = os.fork, []

    def second_fork_fails():
        forks.append(None)
        if len(forks) == 2:
            raise exc("fork failed")
        return fork()

    monkeypatch.setattr(os, "fork", second_fork_fails)
    before = _open_fds()
    with pytest.raises(exc, match="fork failed"):
        fork_map(lambda x: x, range(4))
    assert _open_fds() == before
    _no_child_left()
