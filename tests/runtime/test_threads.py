"""BLAS thread control: the per-worker share and the no-OpenBLAS fallback."""

import os

import pytest

from repro.runtime import threads


@pytest.fixture()
def fresh_lookup():
    """Re-run the cached OpenBLAS symbol lookup, before and after."""
    threads._openblas.cache_clear()
    yield
    threads._openblas.cache_clear()


@pytest.mark.parametrize(
    ("cores", "workers", "share"), [(2, 2, 1), (8, 3, 2), (1, 4, 1)]
)
def test_share_divides_the_usable_cores(monkeypatch, cores, workers, share):
    monkeypatch.setattr(threads, "usable_cores", lambda: cores)
    monkeypatch.setattr(threads, "blas_threads", lambda: 64)
    assert threads.worker_blas_share(workers) == share


def test_share_is_capped_at_the_current_count(monkeypatch):
    monkeypatch.setattr(threads, "usable_cores", lambda: 8)
    # As under OPENBLAS_NUM_THREADS=1: the user's cap wins.
    monkeypatch.setattr(threads, "blas_threads", lambda: 1)
    assert threads.worker_blas_share(2) == 1
    monkeypatch.setattr(threads, "blas_threads", lambda: None)
    assert threads.worker_blas_share(2) is None


def test_missing_symbols_leave_blas_alone(monkeypatch, fresh_lookup):
    monkeypatch.setattr(threads, "_SYMBOLS", (("no_such_get", "no_such_set"),))
    assert threads.blas_threads() is None
    assert threads.set_blas_threads(1) is False
    assert threads.worker_blas_share(2) is None


def test_set_and_read_back():
    before = threads.blas_threads()
    if before is None:
        pytest.skip("NumPy's BLAS thread count cannot be read")
    try:
        assert threads.set_blas_threads(1) is True
        assert threads.blas_threads() == 1
    finally:
        threads.set_blas_threads(before)
    assert threads.blas_threads() == before


def test_usable_cores_without_an_affinity_mask(monkeypatch):
    assert 1 <= threads.usable_cores() <= (os.cpu_count() or 1)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert threads.usable_cores() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert threads.usable_cores() == 1
