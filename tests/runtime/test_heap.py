"""Heap thresholds: applied at import, reported, and what they save."""

import resource

import pytest

from repro.datasets.generation import GenerationConfig, SampleGenerator, plan_dataset_tasks
from repro.runtime import heap

APPLIED = heap.keep_heap_mapped()


@pytest.fixture()
def fresh_setting():
    """Re-run the cached setting, before and after (it is idempotent)."""
    heap.keep_heap_mapped.cache_clear()
    yield
    heap.keep_heap_mapped.cache_clear()


class _Libc:
    def __init__(self, mallopt=None):
        if mallopt is not None:
            self.mallopt = mallopt


def test_applied_thresholds_are_glibcs_ceilings():
    if APPLIED is None:
        pytest.skip("no glibc mallopt here")
    assert APPLIED == {"mmap_threshold": 32 << 20, "trim_threshold": 128 << 20}


def test_without_mallopt_nothing_is_set(monkeypatch, fresh_setting):
    monkeypatch.setattr(heap.ctypes, "CDLL", lambda name: _Libc())
    assert heap.keep_heap_mapped() is None


def test_a_refused_value_reports_none(monkeypatch, fresh_setting):
    calls = []

    def refuse(param, value):
        calls.append((param, value))
        return 0

    monkeypatch.setattr(heap.ctypes, "CDLL", lambda name: _Libc(refuse))
    assert heap.keep_heap_mapped() is None
    assert calls == [(heap._M_MMAP_THRESHOLD, 32 << 20)]


@pytest.mark.skipif(APPLIED is None, reason="heap thresholds unavailable here")
def test_main_thread_samples_reuse_their_pages():
    """With the heap kept mapped a DEFAULT sample barely page-faults.

    glibc's defaults unmapped or trimmed each sample's freed workspaces,
    so the next sample faulted 2,500-3,550 pages back in.
    """
    generator = SampleGenerator(GenerationConfig(), seed=5)
    plan = plan_dataset_tasks(generator.config, generator.seed, 1)
    generator.synthesize_planned_sample(generator.seed, plan[0])  # warm-up
    before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
    for task in plan[1:5]:
        generator.synthesize_planned_sample(generator.seed, task)
    faults = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before
    assert faults / 4 < 300
