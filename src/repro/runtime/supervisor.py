"""One process supervisor core: start children, share the cores, end them.

:class:`~repro.runtime.pool.WorkerPool` and
:class:`~repro.serve.fleet.ReplicaFleet` start every child process through
a :class:`Supervisor`.  It forks (spawn only where the platform has no
fork) and gives each child one duplex pipe.  It computes
:func:`~repro.runtime.threads.worker_blas_share` once, so respawned
children get the same share, and each child applies it before it runs
its target, after moving the heap it inherited out of the garbage
collector's reach.  Each child also runs a watcher thread that exits the process
once its parent changes, so a child idle in ``recv`` and one busy in a
task both end with a SIGKILLed supervisor.  ``PR_SET_PDEATHSIG`` would not
do: it fires when the spawning *thread* exits, and the fleet respawns from
its monitor thread.  :func:`stop_children` and :meth:`Child.kill` are the
one shutdown escalation.

Signal handling stays with each target: pool workers keep the inherited
``KeyboardInterrupt`` handler so Ctrl-C unwinds a busy cell.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import threading
import time
from typing import Callable

from .threads import set_blas_threads, worker_blas_share

__all__ = ["Child", "Supervisor", "stop_children"]

#: How often a child checks that its supervisor is still its parent.
_ORPHAN_POLL_S = 0.1
#: How long each escalation step waits for the child to exit.
_JOIN_S = 2.0


def _watch_parent(parent_pid: int) -> None:
    while os.getppid() == parent_pid:
        time.sleep(_ORPHAN_POLL_S)
    os._exit(1)


def _child_main(
    target: Callable, conn, args: tuple, parent_pid: int, blas_share: "int | None"
) -> None:
    # Park the heap inherited at fork in the collector's permanent
    # generation.  Otherwise the child's first full collections walk every
    # inherited object and copy each page they touch: about 145 ms under a
    # test process's heap, long enough for a replica to miss heartbeats.
    gc.freeze()
    threading.Thread(
        target=_watch_parent, args=(parent_pid,), name="orphan-watch", daemon=True
    ).start()
    if blas_share is not None:
        set_blas_threads(blas_share)
    target(conn, *args)


class Child:
    """Supervisor-side handle on one child: its process and its pipe.

    ``send`` is thread-safe, so a supervisor's threads may share a child.
    """

    __slots__ = ("process", "conn", "_send_lock")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        self._send_lock = threading.Lock()

    def send(self, message) -> None:
        with self._send_lock:
            self.conn.send(message)

    def kill(self) -> None:
        """SIGTERM, join, SIGKILL, join; then close the pipe.

        Safe on a child that has already exited: it only closes the pipe.
        """
        try:
            if self.process.is_alive():
                self.process.terminate()
                self.process.join(timeout=_JOIN_S)
            if self.process.is_alive():  # pragma: no cover - ignored SIGTERM
                self.process.kill()
                self.process.join(timeout=_JOIN_S)
        finally:
            try:
                self.conn.close()
            except OSError:
                pass


class Supervisor:
    """Starts the children of one pool or fleet of ``width`` processes."""

    def __init__(self, width: int):
        self._blas_share = worker_blas_share(width)
        methods = multiprocessing.get_all_start_methods()
        self._context = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )

    def spawn(self, target: Callable, args: tuple, name: str) -> Child:
        """Start ``target(conn, *args)`` in a daemon child process.

        Raises ``OSError`` when the pipe or the process cannot be made;
        under spawn, also what pickling ``args`` raises.
        """
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=_child_main,
            args=(target, child_conn, args, os.getpid(), self._blas_share),
            name=name,
            daemon=True,
        )
        try:
            process.start()
        except BaseException:
            parent_conn.close()
            raise
        finally:
            child_conn.close()
        return Child(process, parent_conn)


def stop_children(children: "list[Child]") -> None:
    """Polite shutdown of many children at once.

    Sends every ``None`` sentinel first, joins all children against one
    shared deadline, then ends each with :meth:`Child.kill`, which
    SIGTERMs the stragglers.  So N children busy in tasks unwind in about
    one join timeout, not N of them.
    """
    for child in children:
        try:
            child.send(None)
        except (OSError, ValueError):
            pass
    deadline = time.monotonic() + _JOIN_S
    for child in children:
        child.process.join(timeout=max(0.0, deadline - time.monotonic()))
    for child in children:
        child.kill()
