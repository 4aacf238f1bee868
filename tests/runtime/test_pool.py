"""WorkerPool: crash isolation, deadlines, retries, determinism, degrade."""

import gc
import multiprocessing
import os
import signal
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.runtime.backoff import RetryPolicy
from repro.runtime.pool import (
    PoolConfig,
    PoolTask,
    WorkerPool,
    derive_task_seed,
    run_tasks,
)
from repro.runtime.supervisor import Child
from repro.runtime.telemetry import metrics, telemetry
from repro.runtime.threads import blas_threads, worker_blas_share

from ..faults import CrashingTask, FlakyTask, HangingTask

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="pool tests assume the fork start method",
)

FAST_RETRY = RetryPolicy(max_attempts=3, base_delay_s=0.01, max_delay_s=0.05, jitter=0.0)


def _square(value):
    return value * value


def _echo_rng(campaign_seed, task_index):
    rng = np.random.default_rng(derive_task_seed(campaign_seed, task_index))
    return rng.random(4).tolist()


def _boom():
    raise RuntimeError("task exploded")


def _pid_and_blas_threads():
    return os.getpid(), blas_threads()


def _frozen_objects():
    return gc.get_freeze_count()


def _pid_under(lock):
    with lock:
        return os.getpid()


class TestDeriveTaskSeed:
    def test_deterministic(self):
        a = np.random.default_rng(derive_task_seed(7, 3)).random(8)
        b = np.random.default_rng(derive_task_seed(7, 3)).random(8)
        np.testing.assert_array_equal(a, b)

    def test_distinct_per_task_and_campaign(self):
        draws = {
            tuple(np.random.default_rng(derive_task_seed(seed, index)).random(4))
            for seed in (0, 1)
            for index in range(4)
        }
        assert len(draws) == 8


class TestPoolBasics:
    def test_results_are_index_ordered(self):
        tasks = [PoolTask(key=f"t{i}", fn=_square, args=(i,)) for i in range(6)]
        results = run_tasks(tasks, PoolConfig(workers=2, retry=FAST_RETRY))
        assert [r.value for r in results] == [i * i for i in range(6)]
        assert all(r.ok and r.attempts == 1 for r in results)

    def test_empty_task_list(self):
        assert run_tasks([], PoolConfig(workers=2)) == []

    def test_serial_path_when_single_worker(self):
        tasks = [PoolTask(key=f"t{i}", fn=_square, args=(i,)) for i in range(3)]
        results = run_tasks(tasks, PoolConfig(workers=1, retry=FAST_RETRY))
        assert [r.value for r in results] == [0, 1, 4]

    def test_parallel_rng_matches_serial(self):
        tasks = [
            PoolTask(key=f"t{i}", fn=_echo_rng, args=(11, i)) for i in range(5)
        ]
        serial = run_tasks(tasks, PoolConfig(workers=1, retry=FAST_RETRY))
        parallel = run_tasks(tasks, PoolConfig(workers=3, retry=FAST_RETRY))
        assert [r.value for r in serial] == [r.value for r in parallel]

    def test_workers_run_their_blas_share(self):
        before = blas_threads()
        if before is None:
            pytest.skip("NumPy's BLAS thread count cannot be read")
        # Two tasks on two idle workers: the first dispatch gives one to each.
        tasks = [PoolTask(key=f"t{i}", fn=_pid_and_blas_threads) for i in range(2)]
        results = run_tasks(tasks, PoolConfig(workers=2, retry=FAST_RETRY))
        assert len({r.value[0] for r in results}) == 2
        assert [r.value[1] for r in results] == [worker_blas_share(2)] * 2
        assert blas_threads() == before

    def test_workers_freeze_the_inherited_heap(self):
        """Forked workers move the objects they inherit out of the cyclic
        collector's reach, so their full collections skip that heap."""
        tasks = [PoolTask(key=f"t{i}", fn=_frozen_objects) for i in range(2)]
        results = run_tasks(tasks, PoolConfig(workers=2, retry=FAST_RETRY))
        assert all(result.value > 0 for result in results)
        assert gc.get_freeze_count() == 0

    def test_on_result_sees_every_terminal_outcome(self):
        seen = []
        tasks = [PoolTask(key=f"t{i}", fn=_square, args=(i,)) for i in range(4)]
        run_tasks(
            tasks, PoolConfig(workers=2, retry=FAST_RETRY),
            on_result=lambda r: seen.append(r.key),
        )
        assert sorted(seen) == [f"t{i}" for i in range(4)]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PoolConfig(workers=0)
        with pytest.raises(ValueError):
            PoolConfig(task_timeout_s=0.0)


class TestTasksComeWithTheFork:
    def test_workers_are_sent_only_index_and_attempt(self, tmp_path, monkeypatch):
        """Neither a task's callable nor its arguments cross the pipe,
        however large: a worker forks holding the task list."""
        sent = []
        send = Child.send

        def recording_send(child, message):
            sent.append(message)
            send(child, message)

        monkeypatch.setattr(Child, "send", recording_send)
        crash = CrashingTask(str(tmp_path / "counter"), crash_attempts=1)
        tasks = [
            PoolTask(key="crashy", fn=crash),
            PoolTask(key="large", fn=np.sum, args=(np.ones(1 << 20),)),
        ]
        results = run_tasks(tasks, PoolConfig(workers=2, retry=FAST_RETRY))
        assert [r.value for r in results] == ["survived", float(1 << 20)]
        dispatched = [message for message in sent if message is not None]
        assert sorted(dispatched) == [(0, 1), (0, 2), (1, 1)]

    def test_tasks_that_cannot_pickle_run_in_the_workers(self):
        tasks = [
            PoolTask(key="lambda", fn=lambda: os.getpid()),
            PoolTask(key="lock", fn=_pid_under, args=(threading.Lock(),)),
        ]
        results = run_tasks(tasks, PoolConfig(workers=2, retry=FAST_RETRY))
        assert [r.error for r in results] == ["", ""]
        assert os.getpid() not in {r.value for r in results}

    def test_respawned_workers_hold_the_tasks_too(self, tmp_path):
        """Both first attempts kill their workers, so both retries run in
        workers forked after the deaths."""
        crashes = [
            CrashingTask(str(tmp_path / f"counter{i}"), crash_attempts=1)
            for i in range(2)
        ]
        tasks = [
            PoolTask(key=f"t{i}", fn=lambda crash=crash: crash())
            for i, crash in enumerate(crashes)
        ]
        results = run_tasks(tasks, PoolConfig(workers=2, retry=FAST_RETRY))
        assert [(r.value, r.attempts) for r in results] == [("survived", 2)] * 2


class TestCrashIsolation:
    def test_crashed_task_is_retried_on_fresh_worker(self, tmp_path):
        metrics().reset()
        crash = CrashingTask(str(tmp_path / "counter"), crash_attempts=1)
        tasks = [
            PoolTask(key="crashy", fn=crash),
            PoolTask(key="ok", fn=_square, args=(3,)),
        ]
        results = run_tasks(tasks, PoolConfig(workers=2, retry=FAST_RETRY))
        assert results[0].ok and results[0].value == "survived"
        assert results[0].attempts == 2
        assert results[1].ok and results[1].value == 9
        assert metrics().counter("pool.worker_deaths").value >= 1
        assert metrics().counter("pool.retries").value >= 1

    def test_persistent_crasher_fails_without_killing_sweep(self, tmp_path):
        metrics().reset()
        crash = CrashingTask(str(tmp_path / "counter"), crash_attempts=99)
        tasks = [
            PoolTask(key="doomed", fn=crash),
            PoolTask(key="ok", fn=_square, args=(4,)),
        ]
        results = run_tasks(tasks, PoolConfig(workers=2, retry=FAST_RETRY))
        assert not results[0].ok
        assert "worker died" in results[0].error
        assert results[0].attempts == FAST_RETRY.max_attempts
        assert results[1].ok and results[1].value == 16
        assert metrics().counter("pool.tasks_failed").value == 1
        assert metrics().counter("pool.tasks_completed").value == 1


class TestDeadlines:
    def test_hanging_task_is_killed_and_retried(self, tmp_path):
        metrics().reset()
        hang = HangingTask(str(tmp_path / "counter"), hang_attempts=1, hang_s=60.0)
        tasks = [PoolTask(key="hangy", fn=hang)]
        results = run_tasks(
            tasks,
            PoolConfig(workers=2, task_timeout_s=0.5, retry=FAST_RETRY),
        )
        assert results[0].ok and results[0].value == "survived"
        assert results[0].attempts == 2
        assert metrics().counter("pool.timeouts").value >= 1

    def test_per_task_timeout_overrides_pool_default(self, tmp_path):
        hang = HangingTask(str(tmp_path / "counter"), hang_attempts=99, hang_s=60.0)
        tasks = [PoolTask(key="hangy", fn=hang, timeout_s=0.3)]
        results = run_tasks(
            tasks,
            PoolConfig(
                workers=2,
                task_timeout_s=120.0,
                retry=RetryPolicy(max_attempts=1),
            ),
        )
        assert not results[0].ok
        assert "deadline" in results[0].error


class TestRetries:
    def test_flaky_exception_recovers_in_place(self, tmp_path):
        flaky = FlakyTask(str(tmp_path / "counter"), fail_attempts=1)
        results = run_tasks(
            [PoolTask(key="flaky", fn=flaky)],
            PoolConfig(workers=2, retry=FAST_RETRY),
        )
        assert results[0].ok and results[0].attempts == 2

    def test_exhausted_retries_keep_last_error(self, tmp_path):
        results = run_tasks(
            [PoolTask(key="boom", fn=_boom)],
            PoolConfig(workers=2, retry=FAST_RETRY),
        )
        assert not results[0].ok
        assert "task exploded" in results[0].error
        assert "RuntimeError" in results[0].traceback
        assert results[0].attempts == FAST_RETRY.max_attempts

    def test_serial_path_retries_identically(self, tmp_path):
        flaky = FlakyTask(str(tmp_path / "counter"), fail_attempts=2)
        results = run_tasks(
            [PoolTask(key="flaky", fn=flaky)],
            PoolConfig(workers=1, retry=FAST_RETRY),
        )
        assert results[0].ok and results[0].attempts == 3


class TestDegradation:
    def test_failed_pool_start_degrades_to_serial(self, monkeypatch):
        metrics().reset()
        monkeypatch.setattr(WorkerPool, "_spawn_worker", lambda self: None)
        tasks = [PoolTask(key=f"t{i}", fn=_square, args=(i,)) for i in range(3)]
        results = run_tasks(tasks, PoolConfig(workers=2, retry=FAST_RETRY))
        assert [r.value for r in results] == [0, 1, 4]
        assert metrics().counter("pool.degraded").value == 1

    def test_a_task_list_the_spawn_fallback_cannot_pickle_runs_serially(
        self, monkeypatch
    ):
        # Without fork each worker start pickles the task list; a lambda
        # fails every start, and the pool degrades instead of raising.
        metrics().reset()
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        results = run_tasks(
            [PoolTask(key="lambda", fn=lambda: 7)], PoolConfig(workers=2, retry=FAST_RETRY)
        )
        assert results[0].ok and results[0].value == 7
        assert metrics().counter("pool.degraded").value == 1


class TestTelemetry:
    def test_attempt_spans_recorded(self):
        tel = telemetry()
        tel.reset()
        tel.enable()
        try:
            tasks = [PoolTask(key=f"t{i}", fn=_square, args=(i,)) for i in range(3)]
            run_tasks(tasks, PoolConfig(workers=2, retry=FAST_RETRY))
            aggregate = tel.aggregate()
        finally:
            tel.disable()
        assert aggregate["pool.attempt"]["count"] == 3

    @staticmethod
    def _run_traced(workers):
        tel = telemetry()
        tel.enable()
        # Spans and counts the parent has before the pool starts are
        # inherited at fork; a worker must not send them home again.
        with tel.span("before.pool"):
            metrics().counter("task.runs").inc(100)
        try:
            tasks = [PoolTask(key=f"t{i}", fn=_traced_task, args=(i,)) for i in range(6)]
            results = run_tasks(tasks, PoolConfig(workers=workers, retry=FAST_RETRY))
        finally:
            tel.disable()
        return tel.finished_spans(), [result.value for result in results]

    def test_worker_spans_and_metrics_come_home(self):
        spans, pids = self._run_traced(workers=2)
        assert os.getpid() not in pids
        work = [span for span in spans if span.name == "task.work"]
        assert sorted(span.attributes["index"] for span in work) == list(range(6))
        # Each span sits on the thread of the worker that ran it.
        assert [span.thread_id for span in sorted(
            work, key=lambda span: span.attributes["index"]
        )] == pids
        assert threading.get_ident() not in {span.thread_id for span in work}
        assert [span.name for span in spans].count("before.pool") == 1
        assert metrics().counter("task.runs").value == 100 + 6
        assert metrics().histogram("task.size").count == 6

    def test_in_process_tasks_count_once(self):
        spans, pids = self._run_traced(workers=1)
        assert set(pids) == {os.getpid()}
        assert [span.name for span in spans].count("task.work") == 6
        assert metrics().counter("task.runs").value == 100 + 6
        assert metrics().histogram("task.size").count == 6


def _traced_task(index):
    with telemetry().span("task.work", index=index):
        metrics().counter("task.runs").inc()
        metrics().histogram("task.size").observe(float(index))
    return os.getpid()


def _report_pid_then_sleep(path):
    Path(path).write_text(str(os.getpid()))
    time.sleep(60.0)


def _supervise_one_long_task(path):
    """Child: a two-worker pool whose single task outlives the test."""
    run_tasks(
        [PoolTask(key="long", fn=_report_pid_then_sleep, args=(path,))],
        PoolConfig(workers=2, retry=FAST_RETRY),
    )


def _proc_stat(pid):
    """``(state, ppid)`` from ``/proc/<pid>/stat``; None once reaped."""
    try:
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except (FileNotFoundError, ProcessLookupError):
        return None
    return fields[0], int(fields[1])


def _children(pid):
    found = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            stat = _proc_stat(int(entry.name))
            if stat is not None and stat[1] == pid:
                found.append(int(entry.name))
    return found


def _running(pid):
    stat = _proc_stat(pid)
    return stat is not None and stat[0] not in ("Z", "X")


def _wait_until_stopped(pid, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while _running(pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    return not _running(pid)


@pytest.fixture()
def killed_supervisor(tmp_path):
    """SIGKILL a two-worker pool's supervisor while one worker sleeps in
    its 60 s task; yields ``(idle_pid, busy_pid)``."""
    busy_pid = tmp_path / "busy.pid"
    supervisor = multiprocessing.get_context("fork").Process(
        target=_supervise_one_long_task, args=(str(busy_pid),)
    )
    supervisor.start()
    workers = []
    try:
        deadline = time.monotonic() + 30.0
        while not (busy_pid.exists() and busy_pid.read_text()):
            assert time.monotonic() < deadline, "long task never started"
            time.sleep(0.02)
        busy = int(busy_pid.read_text())
        workers = _children(supervisor.pid)
        idle = [pid for pid in workers if pid != busy]
        assert len(workers) == 2 and len(idle) == 1, workers

        os.kill(supervisor.pid, signal.SIGKILL)
        yield idle[0], busy
    finally:
        supervisor.kill()
        for pid in workers:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)
        supervisor.join(timeout=10.0)


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
class TestSupervisorDeath:
    def test_idle_worker_exits_when_supervisor_is_killed(self, killed_supervisor):
        """A forked worker that kept copies of its siblings' pipe ends
        would block in ``recv`` forever instead of seeing EOF."""
        idle, _ = killed_supervisor
        assert _wait_until_stopped(idle), "idle worker outlived its supervisor"

    def test_busy_worker_exits_when_supervisor_is_killed(self, killed_supervisor):
        """A worker inside a long task never reads its pipe; it must
        still end with its supervisor, not when the task does."""
        _, busy = killed_supervisor
        assert _wait_until_stopped(busy), "busy worker outlived its supervisor"


def _supervise_three_long_tasks(directory):
    """Child: a three-worker pool whose three tasks outlive the test,
    until a SIGINT sent only to this process unwinds it."""
    tasks = [
        PoolTask(
            key=f"long{index}",
            fn=_report_pid_then_sleep,
            args=(str(Path(directory) / f"{index}.pid"),),
        )
        for index in range(3)
    ]
    try:
        run_tasks(tasks, PoolConfig(workers=3, retry=FAST_RETRY))
    except KeyboardInterrupt:
        pass


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
def test_busy_workers_shut_down_together(tmp_path):
    """Every sentinel goes out before one shared join deadline, so three
    workers busy in 60 s tasks unwind in about one join timeout (2 s),
    not one per worker."""
    supervisor = multiprocessing.get_context("fork").Process(
        target=_supervise_three_long_tasks, args=(str(tmp_path),)
    )
    supervisor.start()
    pid_files = [tmp_path / f"{index}.pid" for index in range(3)]
    workers = []
    try:
        deadline = time.monotonic() + 30.0
        while not all(path.exists() and path.read_text() for path in pid_files):
            assert time.monotonic() < deadline, "long tasks never started"
            time.sleep(0.02)
        workers = [int(path.read_text()) for path in pid_files]

        start = time.monotonic()
        os.kill(supervisor.pid, signal.SIGINT)
        supervisor.join(timeout=10.0)
        elapsed = time.monotonic() - start
        assert not supervisor.is_alive(), "pool never unwound"
        assert elapsed < 4.0, f"three busy workers took {elapsed:.2f}s to stop"
        assert all(_wait_until_stopped(pid, 1.0) for pid in workers)
    finally:
        supervisor.kill()
        for pid in workers:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)
        supervisor.join(timeout=10.0)
