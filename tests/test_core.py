import ast
import math
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import levybank
from levybank import core
from levybank.core import (DiagonalOperator, ProblemSpec, TimeGrid,
                           covariance_deterministic_clock, one_ahead, phi1,
                           squared_eigenvalues, two_threads)


def make_spec(**kw):
    args = dict(alpha=0.75, gamma_bar=1.0, dim=3,
                lambdas=np.array([1.0, 4.0, 9.0]), sigmas=np.ones(3),
                horizon=1.0)
    args.update(kw)
    return ProblemSpec(**args)


def test_diagonal_operator_is_ndarray():
    assert DiagonalOperator is np.ndarray


def test_squared_eigenvalues():
    assert np.array_equal(squared_eigenvalues(5), [1.0, 4.0, 9.0, 16.0, 25.0])
    with pytest.raises(ValueError):
        squared_eigenvalues(0)


def test_spec_validation():
    with pytest.raises(ValueError):
        make_spec(alpha=0.5)
    with pytest.raises(ValueError):
        make_spec(alpha=1.0)
    with pytest.raises(ValueError):
        make_spec(lambdas=np.array([4.0, 1.0, 9.0]))
    with pytest.raises(ValueError):
        make_spec(lambdas=np.array([0.0, 1.0, 2.0]))
    with pytest.raises(ValueError):
        make_spec(sigmas=np.array([1.0, -1.0, 1.0]))
    with pytest.raises(ValueError):
        make_spec(horizon=0.0)
    with pytest.raises(ValueError):
        make_spec(gamma_bar=-1.0)
    with pytest.raises(ValueError):
        make_spec(sigmas=np.ones(4))
    # non-finite values: a NaN gamma_bar made a bank of NaN clocks
    for kw in (dict(gamma_bar=math.nan), dict(gamma_bar=math.inf), dict(horizon=math.nan),
               dict(horizon=math.inf), dict(lambdas=np.array([1.0, 4.0, math.inf])),
               dict(sigmas=np.array([1.0, math.inf, 1.0]))):
        with pytest.raises(ValueError, match="finite"):
            make_spec(**kw)


def test_content_hash_deterministic_and_sensitive():
    a, b = make_spec(), make_spec()
    assert a.content_hash() == b.content_hash()
    assert len(a.content_hash()) == 32
    assert a.content_hash() != make_spec(alpha=0.76).content_hash()
    assert a.content_hash() != make_spec(sigmas=np.full(3, 2.0)).content_hash()
    assert a.content_hash() != make_spec(horizon=2.0).content_hash()


def test_covariance_deterministic_clock_value():
    # sigma^2 (1 - e^{-2 lam tau}) / (2 lam) at lam=2, sigma=0.7, tau=0.3
    spec = make_spec(lambdas=np.array([2.0, 5.0, 9.0]),
                     sigmas=np.array([0.7, 1.0, 1.0]))
    got = covariance_deterministic_clock(spec, 0.2, 0.5)
    assert got[0] == pytest.approx(0.08560370904075523, rel=1e-14)
    # depends on the window only through its length
    np.testing.assert_allclose(got, covariance_deterministic_clock(spec, 0.0, 0.3),
                               rtol=1e-14)


def test_covariance_small_lambda_limit():
    spec = make_spec(lambdas=np.array([1e-10, 1.0, 2.0]))
    got = covariance_deterministic_clock(spec, 0.0, 0.4)
    assert got[0] == pytest.approx(0.4, rel=1e-9)


def test_phi1():
    assert phi1(1.0) == pytest.approx(0.6321205588285577, rel=1e-15)
    assert phi1(1e-12) == pytest.approx(1.0, rel=1e-9)
    np.testing.assert_allclose(phi1(np.array([1.0, 2.0])),
                               [0.6321205588285577, (1 - math.exp(-2)) / 2],
                               rtol=1e-14)


def test_time_grid_basics():
    grid = TimeGrid(0.0, 1.0, 0.25)
    assert grid.n_steps == 4
    times = grid.times()
    assert times[0] == 0.0 and times[-1] == 1.0 and len(times) == 5
    assert grid.index_of(0.5) == 2
    assert grid.index_of(0.5 * (1 + 1e-12)) == 2  # within tolerance
    with pytest.raises(ValueError):
        grid.index_of(0.3)
    with pytest.raises(ValueError):
        grid.index_of(1.25)
    for t in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            grid.index_of(t)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, 0.3)  # step does not divide the span
    with pytest.raises(ValueError):
        TimeGrid(0.5, 0.5, 0.1)


@pytest.mark.parametrize("start,end,step", [
    (0.0, math.inf, 0.1), (-math.inf, 1.0, 0.1), (0.0, 1.0, math.inf),
    (0.0, 1.0, math.nan), (math.nan, 1.0, 0.1), (0.0, 1.0, 1e-310)])
def test_time_grid_rejects_non_finite(start, end, step):
    with pytest.raises(ValueError):
        TimeGrid(start, end, step)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 400), i=st.integers(0, 400))
def test_time_grid_index_roundtrip(n, i):
    i = min(i, n)
    grid = TimeGrid(0.0, 1.0, 1.0 / n)
    assert grid.index_of(grid.times()[i]) == i


# ---------------------------------------------------------------------------
# The helper thread: two_threads and one_ahead


class Planted(Exception):
    pass


class Counted:
    """An iterator over make(i), i = 0 .. n-1, that counts the items pulled."""

    def __init__(self, make, n=100):
        self.make, self.n, self.pulled = make, n, 0

    def __iter__(self):
        return self

    def __next__(self):
        if self.pulled == self.n:
            raise StopIteration
        self.pulled += 1
        return self.make(self.pulled - 1)


def watch_stop(monkeypatch) -> threading.Event:
    """An event set once two_threads has set its stop flag."""
    stopped = threading.Event()

    class Stop(threading.Event):
        def set(self):
            super().set()
            stopped.set()

    monkeypatch.setattr(core, "threading", SimpleNamespace(Event=Stop))
    return stopped


def count_starts(monkeypatch) -> list:
    started, start = [], threading.Thread.start

    def counting_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    return started


def test_two_threads_returns_both_sides_in_order():
    main = threading.main_thread()
    where = []

    def helper_item(i):
        where.append(threading.current_thread() is main)
        return 100 + i

    assert two_threads(Counted(lambda i: i, 40), Counted(helper_item, 50)) == \
        (list(range(40)), list(range(100, 150)))
    assert where == [False] * 50


def test_caller_error_stops_the_helper_before_its_next_item(monkeypatch):
    # the helper is inside its item 1 when the calling thread fails at item 2,
    # and finishes that item only once the stop flag is set
    stopped, helper_busy = watch_stop(monkeypatch), threading.Event()

    def helper_item(i):
        if i == 1:
            helper_busy.set()
            assert stopped.wait(10)
        return i

    def caller_item(i):
        if i == 2:
            assert helper_busy.wait(10)
            raise Planted("caller")
        return i

    mine, theirs = Counted(caller_item), Counted(helper_item)
    with pytest.raises(Planted, match="caller"):
        two_threads(mine, theirs)
    assert (mine.pulled, theirs.pulled) == (3, 2)


def test_helper_error_stops_the_caller_and_is_raised(monkeypatch):
    stopped, caller_busy = watch_stop(monkeypatch), threading.Event()

    def caller_item(i):
        if i == 1:
            caller_busy.set()
            assert stopped.wait(10)
        return i

    def helper_item(i):
        if i == 2:
            assert caller_busy.wait(10)
            raise Planted("helper")
        return i

    mine, theirs = Counted(caller_item), Counted(helper_item)
    with pytest.raises(Planted, match="helper"):
        two_threads(mine, theirs)
    assert (mine.pulled, theirs.pulled) == (2, 3)


def test_callers_error_wins_when_both_raise(monkeypatch):
    # the helper fails first, while the calling thread is in its first item
    stopped, caller_busy = watch_stop(monkeypatch), threading.Event()

    def caller_item(i):
        caller_busy.set()
        assert stopped.wait(10)
        raise Planted("caller")

    def helper_item(i):
        assert caller_busy.wait(10)
        raise Planted("helper")

    mine, theirs = Counted(caller_item), Counted(helper_item)
    with pytest.raises(Planted, match="caller"):
        two_threads(mine, theirs)
    assert (mine.pulled, theirs.pulled) == (1, 1)


def test_two_threads_without_theirs_starts_no_thread(monkeypatch):
    started = count_starts(monkeypatch)
    assert two_threads(Counted(lambda i: i, 5), None) == ([0, 1, 2, 3, 4], [])
    assert started == []
    two_threads(Counted(lambda i: i, 5), Counted(lambda i: i, 5))
    assert len(started) == 1


def test_one_ahead_makes_one_item_ahead_on_the_helper():
    main = threading.main_thread()
    made = [threading.Event() for _ in range(11)]
    where = []

    def make(i):
        where.append(threading.current_thread() is main)
        made[i].set()
        return i

    items = Counted(make, 10)
    got = []
    for item in one_ahead(items):
        assert item == 9 or made[item + 1].wait(10)
        assert items.pulled == min(item + 2, 10)   # this item and the next
        got.append(item)
    assert got == list(range(10)) and where == [False] * 10


def test_closing_one_ahead_joins_its_thread():
    helpers = set()

    def make(i):
        helpers.add(threading.current_thread())
        return i

    items = Counted(make)
    ahead = one_ahead(items)
    assert [next(ahead) for _ in range(3)] == [0, 1, 2]
    ahead.close()
    assert len(helpers) == 1 and not helpers.pop().is_alive()
    assert items.pulled == 4   # the three taken and the one made ahead


def test_only_core_starts_threads():
    # one rule for the helper thread: every other module goes through core
    for path in sorted(Path(levybank.__file__).parent.glob("*.py")):
        imported = set()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.update([node.module] + [f"{node.module}.{a.name}" for a in node.names])
        threads = {name for name in imported
                   if name == "threading" or name.startswith("concurrent.futures")}
        assert not threads or path.name == "core.py", (path.name, threads)
