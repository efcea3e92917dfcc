"""The BLAS thread-count helper: a budget that only ever lowers the
count and always restores the caller's."""

import sys
import threading

import pytest

from repro.core import blas

needs_blas = pytest.mark.skipif(blas.get_threads() is None,
                                reason="numpy's OpenBLAS is not loadable")


@pytest.fixture
def caller_threads():
    """Run the test with the caller's count at 2; put the original
    count back afterwards."""
    get, set_ = blas._load()
    original = get()
    set_(2)
    yield set_
    set_(original)


@needs_blas
class TestThreadBudget:
    def test_lowers_and_restores(self, caller_threads):
        with blas.thread_budget(1):
            assert blas.get_threads() == 1
        assert blas.get_threads() == 2

    def test_restores_on_error(self, caller_threads):
        with pytest.raises(RuntimeError):
            with blas.thread_budget(1):
                raise RuntimeError("inside the block")
        assert blas.get_threads() == 2

    def test_never_raises_a_lower_caller_setting(self, caller_threads):
        caller_threads(1)
        with blas.thread_budget(2):
            assert blas.get_threads() == 1
        assert blas.get_threads() == 1

    def test_nested_blocks(self, caller_threads):
        with blas.thread_budget(1):
            with blas.thread_budget(2):
                assert blas.get_threads() == 1
            assert blas.get_threads() == 1
        assert blas.get_threads() == 2

    def test_overlapping_blocks_on_two_threads(self, caller_threads):
        """Blocks closed out of order (two concurrent fits) still leave
        the smallest open budget in force and restore the caller's
        count once the last one closes."""
        entered, release = threading.Event(), threading.Event()

        def other_fit():
            with blas.thread_budget(1):
                entered.set()
                release.wait(5.0)

        t = threading.Thread(target=other_fit)
        with blas.thread_budget(2):
            t.start()
            assert entered.wait(5.0)
            assert blas.get_threads() == 1
        # this block closed first: the other fit's budget still holds
        assert blas.get_threads() == 1
        release.set()
        t.join(5.0)
        assert blas.get_threads() == 2

    def test_stress_more_threads_than_cores(self, caller_threads):
        """Eight threads open and close budgets in a tight loop with a
        short switch interval: inside a block the count never exceeds
        the block's budget, and the caller's count is back at the end
        (a lost update of the open-budget list would break either)."""
        errors = []

        def churn(budget):
            for _ in range(200):
                with blas.thread_budget(budget):
                    if blas.get_threads() > budget:
                        errors.append(budget)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn, args=(1 + i % 2,))
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30.0)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert blas._held == []
        assert blas.get_threads() == 2

    def test_none_budget_leaves_the_count(self, caller_threads):
        with blas.thread_budget(None):
            assert blas.get_threads() == 2


def test_missing_library_is_a_no_op(monkeypatch):
    monkeypatch.setattr(blas, "_load", lambda: None)
    assert blas.get_threads() is None
    with blas.thread_budget(1):
        pass


@pytest.mark.parametrize("cores,workers,budget", [
    (2, 2, 1), (2, 1, 2), (2, 4, 1), (8, 2, 4), (8, 3, 2), (1, 2, 1)])
def test_fleet_budget(monkeypatch, cores, workers, budget):
    monkeypatch.setattr(blas, "host_cores", lambda: cores)
    assert blas.fleet_budget(workers) == budget
