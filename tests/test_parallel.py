import os
import select
import signal
import struct
import time

import pytest

from minimt.parallel import Pool, WorkerDiedError, map_ordered


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def pipe():
    """(read end, write end) of a pipe through which items signal each
    other; workers inherit both ends."""
    ends = os.pipe()
    yield ends
    for fd in ends:
        os.close(fd)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_results_come_back_in_item_order(use_cpus, cpus):
    use_cpus(cpus)
    out = map_ordered(lambda x: (x * x, os.getpid()), range(8))
    assert [value for value, _ in out] == [x * x for x in range(8)]
    if cpus > 1:    # the caller only hands the items out
        assert os.getpid() not in {pid for _, pid in out}
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

    def fn(x):
        if x == 3:
            os.kill(os.getpid(), signal.SIGKILL)
        return x

    with pytest.raises(WorkerDiedError) as info:
        map_ordered(fn, range(6))
    assert info.value.item == 3
    assert "item 3" in str(info.value)
    assert info.value.exit_code == -9
    assert_no_children()


def test_a_failure_kills_the_workers_above_it(use_cpus):
    use_cpus(2)

    def fn(x):
        if x == 1:
            time.sleep(60)
        raise ValueError(f"item {x}")

    start = time.monotonic()
    with pytest.raises(ValueError, match="item 0"):
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


def test_nested_map_runs_inline(use_cpus, monkeypatch, pipe):
    use_cpus(2)
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(1)     # a worker's appends stay in the worker
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    read_end, write_end = pipe

    def fn(x):
        if x == 0:      # item 0's worker waits until the other has an item
            assert select.select([read_end], [], [], 30)[0], "worker took no item"
        else:
            os.write(write_end, b"w")
        return os.getpid(), map_ordered(lambda y: os.getpid(), range(3))

    out = map_ordered(fn, range(4))
    for pid, inner in out:
        assert inner == [pid] * 3
    assert len({pid for pid, _ in out}) == 2
    assert len(forks) == 2
    assert_no_children()


def test_a_pool_keeps_its_workers_for_every_map(use_cpus, monkeypatch):
    use_cpus(2)
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    with Pool(lambda x: (x * 2, os.getpid()), 2) as pool:
        first = pool.map(range(6))
        second = pool.map(["a", "b"])   # items are sent, not inherited
    assert [value for value, _ in first + second] == [0, 2, 4, 6, 8, 10, "aa", "bb"]
    assert os.getpid() not in {pid for _, pid in first + second}
    assert len(forks) == 2
    assert_no_children()


def test_a_failed_map_reaps_its_pool(use_cpus):
    use_cpus(2)

    def fn(x):
        if x == 2:
            raise ValueError("item 2")
        return x

    with Pool(fn, 2) as pool:
        assert pool.map(range(2)) == [0, 1]
        with pytest.raises(ValueError, match="item 2"):
            pool.map(range(4))
        assert_no_children()


def test_a_slow_caller_item_does_not_hold_back_the_rest(use_cpus, pipe):
    # item 0 waits for a byte only item 4 writes, so the other worker must
    # take items 1-5 while item 0's worker is busy
    use_cpus(2)
    read_end, write_end = pipe

    def fn(x):
        if x == 0:
            return bool(select.select([read_end], [], [], 30)[0])
        if x == 4:
            os.write(write_end, b"4")
        return True

    assert map_ordered(fn, range(6)) == [True] * 6
    assert_no_children()


def test_many_items_map_on_two_cpus(use_cpus, pipe):
    # more results than a pipe holds (64 KiB) must not block the map; one
    # worker waits in item 0 while the other takes all the others
    use_cpus(2)
    n = 20_000
    read_end, write_end = pipe

    def fn(x):
        if x == 0:
            return bool(select.select([read_end], [], [], 30)[0])
        if x == n - 2:
            os.write(write_end, b"w")
        return x * 3

    assert map_ordered(fn, range(n)) == [True] + [x * 3 for x in range(1, n)]
    assert_no_children()


def test_lowest_failing_item_wins_on_every_run(use_cpus):
    use_cpus(2)

    def fn(x):
        if x == 1:
            time.sleep(0.05)    # fails after the higher items below
            raise ValueError("item 1")
        if x % 3 == 2:
            raise ValueError(f"item {x}")
        return x

    for _ in range(10):
        with pytest.raises(ValueError, match="item 1"):
            map_ordered(fn, range(8))
        assert_no_children()


def test_no_item_is_claimed_after_a_failure(use_cpus, tmp_path):
    use_cpus(2)
    log = os.open(tmp_path / "runs", os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def fn(x):
        os.write(log, struct.pack("<i", x))
        if x == 0:      # fails at once
            raise ValueError("item 0")
        time.sleep(0.01)
        return x

    try:
        with pytest.raises(ValueError, match="item 0"):
            map_ordered(fn, range(100))
    finally:
        os.close(log)
    # the other worker may have taken an item or two before item 0 failed
    assert len((tmp_path / "runs").read_bytes()) // 4 < 10
    assert_no_children()


def test_every_item_runs_once_with_more_processes_than_cores(use_cpus, tmp_path):
    # an item handed out twice or lost would run twice or never; each run
    # appends its item to a log (4-byte appends are atomic)
    use_cpus(6)
    n = 20_000
    log = os.open(tmp_path / "runs", os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def fn(x):
        os.write(log, struct.pack("<i", x))
        return x

    start = time.monotonic()
    try:
        assert map_ordered(fn, range(n)) == list(range(n))
    finally:
        os.close(log)
    assert time.monotonic() - start < 60
    runs = (tmp_path / "runs").read_bytes()
    assert sorted(struct.unpack(f"<{len(runs) // 4}i", runs)) == list(range(n))
    assert_no_children()


def test_unpicklable_result_fails_the_map_on_more_than_one_cpu(use_cpus):
    use_cpus(1)
    assert len(map_ordered(lambda x: (lambda: x), range(3))) == 3
    use_cpus(2)
    for _ in range(10):
        with pytest.raises(Exception, match="pickle"):
            map_ordered(lambda x: (lambda: x), range(3))
        assert_no_children()


def test_no_descriptor_is_left_open(use_cpus):
    use_cpus(2)

    def fails(x):
        if x == 1:
            raise ValueError("item 1")
        return x

    def dies(x):
        if x == 2:
            os.kill(os.getpid(), signal.SIGKILL)
        return x

    before = len(os.listdir("/proc/self/fd"))
    assert map_ordered(lambda x: x, range(4)) == list(range(4))
    with pytest.raises(ValueError, match="item 1"):
        map_ordered(fails, range(4))
    with pytest.raises(WorkerDiedError):
        map_ordered(dies, range(4))
    assert len(os.listdir("/proc/self/fd")) == before
    assert_no_children()
