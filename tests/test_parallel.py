import os
import signal
import time

import pytest

from minimt.parallel import WorkerDiedError, map_ordered


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_results_come_back_in_item_order(use_cpus, cpus):
    use_cpus(cpus)
    out = map_ordered(lambda x: (x * x, os.getpid()), range(8))
    assert [value for value, _ in out] == [x * x for x in range(8)]
    # worker w computes items w, w + cpus, ...; worker 0 is the caller
    pids = [{pid for i, (_, pid) in enumerate(out) if i % cpus == w}
            for w in range(cpus)]
    assert pids[0] == {os.getpid()}
    assert all(len(p) == 1 for p in pids)
    assert len(set.union(*pids)) == cpus
    assert_no_children()


def test_item_exception_is_reraised_with_type_and_message(use_cpus):
    use_cpus(2)

    def fn(x):
        if x == 3:
            raise KeyError("item three")
        return x

    with pytest.raises(KeyError, match="item three") as info:
        map_ordered(fn, range(6))
    assert "fn" in str(info.value.__cause__)    # the worker's traceback
    assert_no_children()


def test_first_failing_item_wins(use_cpus):
    use_cpus(3)

    def fn(x):
        if x == 1:
            raise ValueError("one")
        if x == 2:
            raise KeyError("two")
        return x

    with pytest.raises(ValueError, match="one"):
        map_ordered(fn, range(6))
    assert_no_children()


class TwoArgError(Exception):
    def __init__(self, a, b):
        super().__init__(f"{a}/{b}")


def test_unpicklable_exception_keeps_its_type_name_and_message(use_cpus):
    use_cpus(2)

    def fn(x):
        if x == 1:
            raise TwoArgError("a", "b")
        return x

    with pytest.raises(RuntimeError, match="TwoArgError: a/b"):
        map_ordered(fn, range(2))
    assert_no_children()


def test_worker_killed_by_a_signal_raises_worker_died(use_cpus):
    use_cpus(2)
    caller = os.getpid()

    def fn(x):
        if os.getpid() != caller and x == 3:
            os.kill(os.getpid(), signal.SIGKILL)
        return x

    with pytest.raises(WorkerDiedError, match="item 3") as info:
        map_ordered(fn, range(6))
    assert info.value.item == 3
    assert info.value.exit_code == -signal.SIGKILL
    assert_no_children()


def test_caller_share_failure_kills_the_workers(use_cpus):
    use_cpus(2)
    caller = os.getpid()

    def fn(x):
        if os.getpid() != caller:
            time.sleep(60)
        raise ValueError("caller's item")

    start = time.monotonic()
    with pytest.raises(ValueError, match="caller's item"):
        map_ordered(fn, range(2))
    assert time.monotonic() - start < 30
    assert_no_children()


@pytest.mark.parametrize("cpus, n_items", [(1, 4), (2, 1), (3, 0)])
def test_one_cpu_or_one_item_never_forks(use_cpus, monkeypatch, cpus, n_items):
    use_cpus(cpus)

    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    assert map_ordered(lambda x: x + 1, range(n_items)) == list(range(1, n_items + 1))


def test_nested_map_runs_inline(use_cpus, monkeypatch):
    use_cpus(2)
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(1)     # a worker's appends stay in the worker
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    out = map_ordered(
        lambda x: (os.getpid(), map_ordered(lambda y: os.getpid(), range(3))),
        range(4))
    for pid, inner in out:
        assert inner == [pid] * 3
    assert len({pid for pid, _ in out}) == 2
    assert len(forks) == 1
    assert_no_children()
