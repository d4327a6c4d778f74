"""The supervised-worker lane: one worker slot behind two private pipes.

Both things in this repository that keep worker processes alive — the
process backend's resident fleets, pooled between runs
(:mod:`repro.exec.process`), and the mining service's resident serving
lanes (:mod:`repro.service.server`) — supervise them through this
module, so a liveness fix lands once. Both owners are resident: a
worker outlives the job or query it ran and waits on its command pipe
for the next.

A :class:`Lane` owns one worker *slot*. Spawning an **incarnation**
bumps the slot's epoch, creates a private command pipe (parent →
worker) and a private result pipe (worker → parent), starts the
process and closes the child-side ends in the parent. Every pipe
therefore has exactly one writer and one reader, which is the whole
liveness argument (docs/execution.md, "Real-process failure
semantics"):

* nothing is shared, so a worker SIGKILLed at any instant holds no
  lock anyone else needs — a shared ``multiprocessing.Queue`` dies
  holding its write lock if its feeder is killed mid-``send``;
* a message whose ``send`` returned sits in the kernel's pipe buffer
  and survives its sender;
* a death is an EOF, which ``multiprocessing.connection.wait`` reports
  at once, ahead of any heartbeat — and a message torn by a death
  mid-``send`` ends in that same EOF instead of a wedged reader.

Under ``fork`` a child spawned later inherits a copy of every
parent-side end the parent still holds; :func:`_child_main` closes
them all (the module keeps track of the lanes it created), so "only
its owner holds it" stays true and EOF means what it says in both
directions.

Policy stays with the owners: :func:`sweep` only says what was
delivered and who is dead (always in that order — **drain before
death**, so a worker that reported and then died is never a spurious
loss); the fleet marks lost and redistributes, the service respawns
and degrades one query. A long-lived owner (a pooled fleet, the
service) blocks on one persistent :class:`Poller` instead of building a
wait set per pass.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import select
import signal
import struct
import threading
import weakref
from multiprocessing import resource_tracker
from multiprocessing.reduction import ForkingPickler
from typing import Iterator, Optional, Sequence

#: cap on any single blocking wait in a worker before it re-checks
#: that its parent still exists
POLL_SECONDS = 1.0

#: command-pipe sentinel that ends :meth:`WorkerEnd.commands`
_SHUTDOWN = "__lane_shutdown__"

#: every live lane of this process: what a forked child inherits the
#: parent-side pipe ends of, and must drop
_lanes: "weakref.WeakSet[Lane]" = weakref.WeakSet()


def die_mid_send(conn, message) -> None:
    """Chaos seam (benchmarks/chaos.py): leave on ``conn`` exactly what
    a crash inside ``conn.send(message)`` leaves — the length prefix
    and half the body — then SIGKILL this process."""
    body = bytes(ForkingPickler.dumps(message))
    os.write(conn.fileno(),
             struct.pack("!i", len(body)) + body[: len(body) // 2])
    os.kill(os.getpid(), signal.SIGKILL)


class WorkerEnd:
    """The worker's side of its lane (built by :meth:`Lane.spawn`)."""

    def __init__(self, index: int, epoch: int, commands, results):
        self.index = index
        self.epoch = epoch
        self._parent_pid = os.getpid()  # built in the parent
        self._commands = commands
        self._results = results
        self._sent = 0
        #: die inside this result-pipe send (0: never); see :meth:`arm`
        self._tear_at = 0

    def arm(self, tear_at: int) -> None:
        """Count result-pipe sends afresh and die inside the
        ``tear_at``-th (0: never) — the chaos seam
        ``REPRO_CHAOS=worker-kill-midsend:<index>:<n>``, armed by a
        fleet worker at the start of each job."""
        self._sent = 0
        self._tear_at = tear_at

    def send(self, message) -> None:
        """Ship one message to the parent. Once this returns the
        message survives this process; ``BrokenPipeError`` means the
        parent stopped listening."""
        self._sent += 1
        if self._sent == self._tear_at:
            die_mid_send(self._results, message)
        self._results.send(message)

    def commands(self) -> Iterator:
        """Yield the parent's commands until the shutdown sentinel.

        Every wait is bounded and re-checks that the parent still
        exists (a killed parent's children are adopted by init), so an
        orphan exits instead of lingering; a command tagged with
        another incarnation's epoch (dispatched to a dead predecessor
        in the window before its death was seen) is discarded, never
        replayed.
        """
        ready = select.poll()  # one poll set for the life of the loop
        ready.register(self._commands.fileno(), select.POLLIN)
        while True:
            try:
                if not ready.poll(POLL_SECONDS * 1e3):
                    if os.getppid() != self._parent_pid:
                        return
                    continue
                epoch, message = self._commands.recv()
            except (EOFError, OSError):
                return  # the parent closed its end, or is gone
            if message == _SHUTDOWN:
                return
            if epoch == self.epoch:
                yield message

    def close(self) -> None:
        self._commands.close()
        self._results.close()


def _release_resource_tracker() -> None:
    """Close this child's copy of the parent's resource-tracker pipe.

    The tracker exits at EOF on that pipe, and a resident worker would
    hold it open for as long as it idles, so a parent that stops its
    tracker and waits for it would wait on its own idle workers. A
    worker never needs it: attachments do not register
    (:func:`repro.graph.csr.attach_segment`)."""
    tracker = resource_tracker._resource_tracker
    fd, tracker._fd, tracker._pid = tracker._fd, None, None
    if fd is not None:
        os.close(fd)


def _child_main(target, end: WorkerEnd, *args) -> None:
    for lane in list(_lanes):  # empty under spawn
        lane._close_pipes()
    _release_resource_tracker()
    try:
        target(end, *args)
    except BrokenPipeError:
        pass  # the parent stopped listening: nobody left to report to
    finally:
        end.close()


def resolve_start_method(start_method: Optional[str]) -> str:
    """``start_method``, or for ``None`` ``fork`` where the platform has
    it (cheap; Linux) and ``spawn`` elsewhere."""
    if start_method is not None:
        return start_method
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


class Lane:
    """One supervised worker slot (parent side).

    ``target(end, *args)`` is the worker entry point; ``end`` is the
    incarnation's :class:`WorkerEnd`. ``start_method`` ``None`` prefers
    ``fork`` (cheap; Linux) and falls back to ``spawn`` — worker
    arguments are kept picklable so both work. One thread at a time
    may :func:`wait` on, :func:`sweep`, :meth:`spawn` or :meth:`stop`
    a lane (its supervisor); :meth:`send` and :meth:`release` are safe
    from any thread.
    """

    def __init__(self, index: int, name: str, target, args: Sequence = (),
                 start_method: Optional[str] = None):
        self.index = index
        self.name = name
        #: spawn count of this slot; commands carry the epoch they were
        #: sent under
        self.epoch = 0
        self.process = None
        self._context = multiprocessing.get_context(
            resolve_start_method(start_method))
        self._target = target
        self._args = tuple(args)
        self._commands = None
        self._results = None
        # closing an fd another thread is writing could hand the write
        # to whichever pipe reuses the number: send and the pipe swap
        # exclude each other (in-process only, never seen by a worker)
        self._lock = threading.Lock()
        _lanes.add(self)

    def spawn(self) -> None:
        """Start a new incarnation, abandoning the previous one's pipes
        (a dead incarnation's results become undeliverable)."""
        with self._lock:
            self._close_pipes()
            self._reap()
            self.epoch += 1
            command_reader, self._commands = self._context.Pipe(
                duplex=False)
            self._results, result_writer = self._context.Pipe(duplex=False)
            end = WorkerEnd(self.index, self.epoch, command_reader,
                            result_writer)
            self.process = self._context.Process(
                target=_child_main, args=(self._target, end, *self._args),
                name=self.name, daemon=True,
            )
            try:
                self.process.start()
            finally:
                # the worker owns these now; with the parent's copies
                # gone its death is an EOF on the result pipe
                end.close()

    def send(self, message, epoch: Optional[int] = None) -> bool:
        """Send one command; ``False`` — never an exception — when the
        incarnation is dead or (given the ``epoch`` the caller chose it
        under) has been replaced since.

        Dead includes a death the supervisor has already seen as a
        result-pipe EOF: the child's command reader can outlive that
        EOF while its teardown finishes, and a write into it would
        succeed and be lost."""
        with self._lock:
            if (self._commands is None or self._results is None
                    or epoch not in (None, self.epoch)):
                return False
            try:
                self._commands.send((self.epoch, message))
            except OSError:
                return False
            return True

    def alive(self) -> bool:
        """The incarnation runs and its result pipe is open."""
        return (self.process is not None and self._results is not None
                and self.process.exitcode is None)

    def release(self) -> None:
        """Tell the worker to leave its command loop and exit."""
        self.send(_SHUTDOWN)

    def _drain(self) -> list:
        messages = []
        while self._results is not None:
            try:
                if not self._results.poll(0):
                    break
                messages.append(self._results.recv())
            except (EOFError, OSError):
                # EOF, or the tail of a message its sender died inside
                self._results.close()
                self._results = None
        return messages

    def exit_reason(self) -> str:
        """Why this incarnation is dead, for a report (reaps it)."""
        process = self.process
        process.join(timeout=POLL_SECONDS)
        if process.exitcode is None:
            # its result pipe is closed but it lingers: of no use
            process.kill()
            process.join(timeout=5.0)
        code = process.exitcode
        if code is None:  # pragma: no cover - unkillable
            return "stopped responding"
        if code < 0:
            return f"killed by signal {-code}"
        return f"exited with code {code}"

    def stop(self, timeout: float = 2.0) -> None:
        """Release, join within ``timeout``, terminate what is left,
        close both pipes. Idempotent."""
        if self.process is None:
            return
        self.release()
        with self._lock:
            # nobody reads results any more: a worker blocked in a send
            # fails with EPIPE now instead of waiting for the terminate
            self._close_pipes()
        self.process.join(timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=10.0)
        self._reap()

    def _reap(self) -> None:
        if self.process is not None and self.process.exitcode is not None:
            self.process.close()  # frees the sentinel fd
        self.process = None

    def _close_pipes(self) -> None:
        for end in (self._commands, self._results):
            if end is not None:
                end.close()
        self._commands = self._results = None


class Poller:
    """One persistent poll set over lanes' result pipes and a wake pipe,
    what a long-lived supervisor blocks on instead of building a wait
    set each pass; a lane's pipe is registered again only when a
    respawn replaced it. One thread collects; :meth:`wake` is safe from
    any thread.
    """

    def __init__(self):
        self._poll = select.poll()
        self._wake_read, self._wake_write = os.pipe()
        os.set_blocking(self._wake_write, False)
        self._poll.register(self._wake_read, select.POLLIN)
        self._lanes: dict[int, Lane] = {}  # result-pipe fd -> its lane

    def wake(self) -> None:
        """End the current (or the next) :meth:`collect` wait at once."""
        with contextlib.suppress(BlockingIOError):  # full of unread wakes
            os.write(self._wake_write, b"\0")

    def collect(self, lanes, timeout: float) -> tuple[list, list]:
        """:func:`sweep`'s ``(messages, dead)`` after one wait of at most
        ``timeout`` seconds: each readable lane's next message, or the
        EOF that is its death (a lane that reported and then died is
        readable again on the next pass, so its result comes first). A
        wait that ends with nothing ready is a heartbeat: it sweeps."""
        current = {lane._results.fileno(): lane for lane in lanes
                   if lane._results is not None}
        for fd in self._lanes.keys() - current.keys():
            self._poll.unregister(fd)
        for fd in current.keys() - self._lanes.keys():
            self._poll.register(fd, select.POLLIN)
        self._lanes = current
        ready = self._poll.poll(timeout * 1e3)
        if not ready:
            return sweep(lanes)
        messages, dead = [], []
        for fd, _ in ready:
            lane = current.get(fd)
            if lane is None:  # one read takes every wake the pipe holds
                os.read(fd, 1 << 16)
                continue
            try:
                messages.append((lane, lane._results.recv()))
            except (EOFError, OSError):  # as in :meth:`Lane._drain`
                lane._results.close()
                lane._results = None
                dead.append(lane)
        return messages, dead

    def close(self) -> None:
        os.close(self._wake_read)
        os.close(self._wake_write)


def sweep(lanes) -> tuple[list, list]:
    """``(messages, dead)``: every ``(lane, message)`` already
    delivered, then every lane whose incarnation is gone.

    The exit code is read *before* the pipe is drained: whatever a dead
    worker sent is in its pipe by then, so nothing it delivered can be
    missed and a worker that reported and then died is never taken for
    one that died silent. A dead lane is named on every sweep until its
    owner respawns or stops it.
    """
    messages, dead = [], []
    for lane in lanes:
        if lane.process is None:
            continue
        exited = lane.process.exitcode is not None
        messages.extend((lane, message) for message in lane._drain())
        if exited or lane._results is None:
            dead.append(lane)
    return messages, dead
