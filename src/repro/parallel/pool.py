"""The supervised worker pool every sharded fan-out runs through.

A :class:`WorkerPool` keeps shard workers warm across repair calls, so a
long-lived session pays process spawn and per-shard detection once:

* worker **processes** are spawned once (lazily, at the first bind) and stay
  alive until :meth:`close` — after warm-up a repair call spawns nothing;
* each worker holds **standing shard replicas**
  (:class:`~repro.parallel.worker.ShardWorkerState`): graph, candidate
  index, match stores, and violation queue survive between calls, and the
  coordinator ships *committed deltas* instead of full payloads, so shard
  detection is incremental.

The protocol has three commands, each acknowledged by the worker:

* ``bind(key, ...)`` — build (or rebuild) one standing replica from a full
  payload; the expensive path, paid once per shard plus once per staleness;
* ``ship(key, delta)`` — replay one projected committed delta into the
  replica and its matcher state (one incremental pass).  A worker that
  cannot replay the delta (replica divergence) drops the replica and
  answers *stale* instead of failing the pool: the coordinator rebinds;
* ``repair(key)`` — one propose-then-revert repair pass (see
  :class:`ShardWorkerState`); returns the proposed repairs.

Shards are pinned to workers round-robin at first bind, so a shard's
replica state always lives where its commands are routed.  Commands to
different workers run concurrently; the coordinator dispatches a batch and
then collects every acknowledgement, so a batch is a deterministic barrier.

**Supervision** (docs/RESILIENCE.md): the coordinator polls worker
liveness while it waits for replies and enforces a per-command reply
deadline.  A worker that dies (crash, SIGKILL) or stops replying (hang —
the deadline expires and the worker is terminated) is *respawned* in
place: a fresh process takes over its index and task queue, and every
command the dead worker still owed is re-driven —

* an owed ``bind`` is simply resent (the payload is in the message);
* an owed ``ship`` is answered *stale* on the worker's behalf, so the
  coordinator rebinds that replica instead of replaying a delta into a
  process that no longer exists;
* an owed ``repair`` is retried **once**: the caller-supplied ``rebinder``
  callback produces fresh bind arguments for the shard (the coordinator's
  projected-payload machinery), a rebind plus the original repair are
  queued to the respawned worker, and the barrier continues.  A worker
  SIGKILL'd mid-repair therefore heals transparently.

Standing replicas that lived on the dead worker but were *not* part of the
running barrier are recorded and reported through :meth:`take_lost`, so
coordinators mark just those shards stale instead of rebinding the world.

Only when recovery itself fails — the same shard loses its worker twice in
one barrier, a retried repair errors again, or no rebinder is available —
does the pool fall back to the strict legacy behaviour: shut everything
down and raise :class:`~repro.exceptions.WorkerPoolError` (no orphaned
processes outlive a failure; :meth:`close` escalates join → terminate →
kill).  The pool is then **reopenable**: the next command starts a fresh
*generation* of workers and coordinators rebind.  Callers that can serve
the request another way (the sharded backend's sequential drain) consult
the pool's :class:`~repro.parallel.breaker.CircuitBreaker` before fanning
out.

``inline=True`` runs the identical state machine in-process (no spawn,
same replicas, same replies) for tests and single-CPU hosts; a
:class:`~repro.testing.faults.FaultPlan` can script crashes, hangs and
errors in either mode, and inline death/respawn is *simulated* so chaos
scenarios stay deterministic.
"""

from __future__ import annotations

import multiprocessing
import queue
import threading
import time
import traceback
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from repro import telemetry
from repro.exceptions import WorkerPoolError
from repro.graph.delta import GraphDelta
from repro.parallel.breaker import CircuitBreaker
from repro.parallel.worker import ShardResult, ShardWorkerState
from repro.repair.config import RepairConfig
from repro.rules.grr import RuleSet
from repro.telemetry.log import get_logger, log_event, warn_swallowed
from repro.testing import faults as _faults

_log = get_logger("parallel.pool")

#: how long the coordinator waits for one reply poll before re-checking
#: worker liveness (seconds)
_POLL_INTERVAL = 0.25
#: default per-command reply deadline with live workers (seconds); the
#: deadline restarts on every reply and after every recovery pass.
#: Generous — a bind does a full shard detection
_REPLY_TIMEOUT = 600.0
#: default grace period for each step of the close() escalation
#: (join → terminate → kill), seconds
_STOP_GRACE = 2.0

#: a rebinder maps a shard key to fresh bind arguments
#: ``(payload, namespace, core, rules, config)`` — the tail of a bind command
Rebinder = Callable[[str], tuple]


@dataclass
class PoolStats:
    """Warm-pool overhead counters (deterministic; asserted by the
    ``service-kg`` benchmark: ``spawns`` must stop growing after warm-up —
    and by ``chaos-kg``: respawns/retries must match the fault plan)."""

    #: worker processes spawned over the pool's lifetime (respawns included)
    spawns: int = 0
    #: full shard payloads shipped (first binds + staleness rebinds)
    binds: int = 0
    #: incremental committed-delta shipments
    deltas_shipped: int = 0
    #: individual shard repair commands executed
    shard_repairs: int = 0
    #: pool-level repair barriers (one per coordinator fan-out)
    repair_calls: int = 0
    #: fair time-slice leases granted (see :meth:`WorkerPool.lease`)
    leases: int = 0
    #: total seconds lease holders spent queued behind earlier arrivals
    lease_wait_seconds: float = 0.0
    #: workers observed dead or hung by the supervisor
    worker_deaths: int = 0
    #: dead workers replaced in place (inline deaths are simulated)
    respawns: int = 0
    #: commands abandoned because their reply deadline expired
    command_timeouts: int = 0
    #: shard commands re-driven after a death or a failed repair
    retries: int = 0
    #: repairs the owning backend degraded to the sequential drain
    #: (incremented by the backend, surfaced here so service health and
    #: benchmarks read one stats object)
    fallback_repairs: int = 0

    def as_dict(self) -> dict[str, int]:
        return {"spawns": self.spawns, "binds": self.binds,
                "deltas_shipped": self.deltas_shipped,
                "shard_repairs": self.shard_repairs,
                "repair_calls": self.repair_calls,
                "leases": self.leases,
                "lease_wait_seconds": round(self.lease_wait_seconds, 6),
                "worker_deaths": self.worker_deaths,
                "respawns": self.respawns,
                "command_timeouts": self.command_timeouts,
                "retries": self.retries,
                "fallback_repairs": self.fallback_repairs}


def _handle_command(states: dict, message: tuple) -> tuple[str, object]:
    """Execute one coordinator command against a worker's replica states.

    The one implementation shared by the spawned worker loop and the inline
    executor — both modes run byte-identical shard logic.  Returns the reply
    ``(status, payload)``.
    """
    command, key = message[0], message[1]
    if command == "bind":
        payload, namespace, core, rules, config = message[2:]
        previous = states.pop(key, None)
        if previous is not None:
            previous.close()
        states[key] = ShardWorkerState(payload, namespace, core, rules, config)
        return "ok", None
    if command == "ship":
        delta = message[2]
        state = states[key]
        try:
            return "ok", state.ship(delta)
        except Exception as exc:  # divergence: drop the replica, ask to rebind
            states.pop(key, None)
            state.close()
            warn_swallowed(_log, "replica-ship-diverged", exc=exc, shard=key,
                           changes=len(delta.changes))
            return "stale", f"{type(exc).__name__}: {exc}"
    if command == "repair":
        context = message[2] if len(message) > 2 else None
        if context is None:
            return "ok", states[key].repair()
        with telemetry.worker_collection(context, process=f"shard-{key}") \
                as telemetry_box:
            with telemetry.span("shard.repair", shard=key):
                result = states[key].repair()
        result.telemetry = telemetry_box["telemetry"]
        result.spans = telemetry_box["spans"]
        return "ok", result
    raise ValueError(f"unknown pool command {command!r}")


def _pool_worker_main(task_queue, result_queue, worker_index: int = 0,
                      fault_plan=None) -> None:
    """Entry point of one spawned pool worker (top-level: spawn-picklable).

    ``fault_plan`` is the pickled chaos script (or ``None``): each command
    fires the ``worker.command`` site with this worker's index before it is
    handled, and the stop sentinel fires ``worker.stop`` — see
    :mod:`repro.testing.faults`.  Respawned workers are started without a
    plan: the scripted fault already happened.
    """
    states: dict[str, ShardWorkerState] = {}
    while True:
        message = task_queue.get()
        if message[0] == "stop":
            if fault_plan is not None:
                fault_plan.fire("worker.stop", worker=worker_index)
            break
        key = message[1]
        try:
            if fault_plan is not None:
                fault_plan.fire("worker.command", worker=worker_index,
                                command=message[0], key=key)
            status, payload = _handle_command(states, message)
            result_queue.put((key, status, payload))
        except BaseException:
            result_queue.put((key, "error", traceback.format_exc()))
    for state in states.values():
        state.close()


class WorkerPool:
    """A persistent, supervised pool of warm shard workers (see module
    docstring).

    Thread safety: every public command serialises on the pool's internal
    lock, so coordinators on different threads (a service's tenants
    repairing concurrently) interleave whole *barriers*, never individual
    replies.  Shard state stays correct because each shard key is pinned to
    one worker and one owning backend.

    Failure and recovery: a dead or hung worker is respawned mid-barrier
    and its in-flight commands are re-driven (repairs retried once via the
    caller's ``rebinder``).  Unhealable failures shut the pool down and
    raise :class:`WorkerPoolError` to the command that observed them.  The
    pool is **reopenable**: the next command after a close starts a fresh
    *generation* of workers (``generation`` increments; all standing
    replicas are gone, so coordinators that cached binds must rebind when
    they see the generation change).  A transient worker death therefore
    costs one recovery pass — not the repair call, and never the pool's
    owner for good.

    ``breaker`` is the pool's :class:`~repro.parallel.breaker.CircuitBreaker`
    — the pool itself never consults it (barriers either heal or raise);
    it lives here so every backend sharing the pool shares one failure
    budget.
    """

    def __init__(self, workers: int, inline: bool = False, *,
                 reply_timeout: float = _REPLY_TIMEOUT,
                 stop_grace: float = _STOP_GRACE,
                 fault_plan: Optional["_faults.FaultPlan"] = None,
                 breaker: Optional[CircuitBreaker] = None) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if reply_timeout <= 0:
            raise ValueError(f"reply_timeout must be > 0, got {reply_timeout}")
        if stop_grace <= 0:
            raise ValueError(f"stop_grace must be > 0, got {stop_grace}")
        self.workers = workers
        self.inline = inline
        self.reply_timeout = reply_timeout
        self.stop_grace = stop_grace
        self.stats = PoolStats()
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        #: bumped at every (re)start; replicas bound under an older
        #: generation no longer exist
        self.generation = 0
        self._fault_plan = fault_plan
        self._lock = threading.RLock()
        self._context = multiprocessing.get_context("spawn")
        self._processes: list = []
        self._task_queues: list = []
        self._result_queue = None
        self._assignment: dict[str, int] = {}
        self._next_worker = 0
        self._inline_states: dict[str, ShardWorkerState] = {}
        #: shard keys whose standing replica vanished with a respawned
        #: worker while no barrier covered them (drained by take_lost())
        self._lost: set[str] = set()
        self._closed = False
        self._generation_open = False
        # fair FIFO lease queue (see lease()): tickets are granted strictly
        # in arrival order, independent of the command lock's scheduling
        self._lease_condition = threading.Condition()
        self._lease_next_ticket = 0
        self._lease_serving = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def started(self) -> bool:
        return self._generation_open

    def start(self) -> int:
        """Ensure the pool is running (reopening it if closed) and return
        the current generation — coordinators compare it against the
        generation their replicas were bound under."""
        with self._lock:
            self._ensure_started()
            return self.generation

    def _ensure_started(self) -> None:
        if self._closed:
            # reopen: a fresh generation, no replicas carried over
            self._closed = False
        if not self._generation_open:
            self.generation += 1
            self._generation_open = True
        if self.inline or self._processes:
            return
        self._result_queue = self._context.Queue()
        for index in range(self.workers):
            task_queue = self._context.Queue()
            self._task_queues.append(task_queue)
            self._processes.append(self._spawn_worker(index, self._fault_plan))

    def _spawn_worker(self, index: int, fault_plan):
        process = self._context.Process(
            target=_pool_worker_main,
            args=(self._task_queues[index], self._result_queue, index,
                  fault_plan),
            daemon=True,
            name=f"repro-pool-worker-{index}")
        process.start()
        self.stats.spawns += 1
        if telemetry.TELEMETRY.enabled:
            telemetry.inc("repro_pool_spawns_total")
        return process

    def close(self) -> None:
        """Shut the pool down: stop (or terminate, or kill) every worker.

        Idempotent, and unconditional — called from error paths too, so it
        never assumes the workers are still responsive.  The shutdown
        escalates per process: wait ``stop_grace`` for a graceful exit,
        SIGTERM and wait again, then SIGKILL — a worker that ignores
        SIGTERM (wedged in uninterruptible work) is reaped rather than
        leaked as an orphan.  A later command *reopens* the pool with
        fresh workers (see the class docstring).
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for index, task_queue in enumerate(self._task_queues):
                try:
                    task_queue.put(("stop",))
                except Exception as exc:
                    # the worker will be terminated below regardless; a
                    # failed stop-enqueue only means the graceful path is
                    # gone, which is worth a breadcrumb, not a raise
                    warn_swallowed(_log, "stop-enqueue-failed", exc=exc,
                                   worker=index,
                                   generation=self.generation)
            for process in self._processes:
                process.join(timeout=self.stop_grace)
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=self.stop_grace)
                if process.is_alive():
                    process.kill()
                    process.join(timeout=self.stop_grace)
            self._processes.clear()
            self._task_queues.clear()
            self._result_queue = None
            for state in self._inline_states.values():
                state.close()
            self._inline_states.clear()
            self._assignment.clear()
            self._lost.clear()
            self._generation_open = False

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # fair time slicing
    # ------------------------------------------------------------------

    @contextmanager
    def lease(self, owner: str = ""):
        """Hold one fair FIFO time slice of the pool.

        The pool's command lock alone serialises barriers but lets the OS
        scheduler pick who goes next — a tenant issuing many barriers can
        barge ahead of one that arrived earlier.  A *lease* is the
        scheduler-owned slicing layer above it: holders are admitted
        strictly in arrival order, so wrapping each tenant's repair in
        ``with pool.lease(tenant):`` guarantees a flooding tenant cannot
        re-acquire the pool before every earlier-arrived tenant has had its
        slice.  Purely advisory — commands from non-lease callers still
        interleave at barrier granularity — and reentrant-free: do not nest
        leases on one thread.  ``owner`` labels the wait-time histogram.
        """
        with self._lease_condition:
            ticket = self._lease_next_ticket
            self._lease_next_ticket += 1
            waited_from = time.monotonic()
            while self._lease_serving != ticket:
                self._lease_condition.wait()
            waited = time.monotonic() - waited_from
            self.stats.leases += 1
            self.stats.lease_wait_seconds += waited
        if telemetry.TELEMETRY.enabled:
            telemetry.observe("repro_pool_lease_wait_seconds", waited,
                              tenant=owner)
        try:
            yield self
        finally:
            with self._lease_condition:
                self._lease_serving += 1
                self._lease_condition.notify_all()

    # ------------------------------------------------------------------
    # command dispatch
    # ------------------------------------------------------------------

    def _worker_for(self, key: str) -> int:
        worker = self._assignment.get(key)
        if worker is None:
            worker = self._next_worker % self.workers
            self._assignment[key] = worker
            self._next_worker += 1
        return worker

    def _fail(self, message: str) -> "WorkerPoolError":
        self.close()
        return WorkerPoolError(message)

    def take_lost(self, keys: Iterable[str]) -> set[str]:
        """Drain (and return) the subset of ``keys`` whose standing replica
        vanished with a respawned worker since the last call.

        Coordinators call this at the start of a fan-out: unlike a
        generation bump (pool closed and reopened — *everything* gone), a
        mid-barrier respawn only destroys the dead worker's replicas, so
        only those shards need a rebind.
        """
        with self._lock:
            taken = self._lost.intersection(keys)
            self._lost -= taken
            return taken

    def _dispatch(self, commands: list[tuple],
                  rebinder: Optional[Rebinder] = None) -> dict[str, tuple[str, object]]:
        """Send a batch of commands and collect every reply (a barrier).

        Replies are keyed by shard key.  Worker deaths, hangs and errored
        repairs are healed in place when possible (see the module
        docstring); an unhealable failure shuts the pool down and raises.
        ``rebinder`` supplies fresh bind arguments for a shard whose repair
        must be retried — without it, a death mid-repair is unhealable.
        """
        if not commands:
            return {}
        if len({message[1] for message in commands}) != len(commands):
            raise ValueError("one batch may carry at most one command per "
                             "shard key (replies are keyed by shard)")
        # a batch is atomic with respect to other coordinator threads: the
        # shared result queue must only ever carry one batch's replies
        with self._lock:
            return self._dispatch_locked(commands, rebinder)

    def _dispatch_locked(self, commands: list[tuple],
                         rebinder: Optional[Rebinder]) -> dict[str, tuple[str, object]]:
        self._ensure_started()
        if self.inline:
            return self._dispatch_inline(commands, rebinder)
        # per-key FIFO of commands still owed a reply; recovery can grow a
        # key's queue (rebind + retried repair), so replies must pop in
        # order.  The bool marks whether the reply is recorded for the
        # caller (recovery rebinds are internal).
        outstanding: dict[str, deque] = {
            message[1]: deque([(message, True)]) for message in commands}
        for message in commands:
            self._task_queues[self._worker_for(message[1])].put(message)
        replies: dict[str, tuple[str, object]] = {}
        retried: set[str] = set()
        deadline = time.monotonic() + self.reply_timeout
        while outstanding:
            try:
                reply = self._result_queue.get(timeout=_POLL_INTERVAL)
            except Exception as exc:
                if not isinstance(exc, queue.Empty):
                    # a broken result queue shows up here; the liveness and
                    # deadline checks below decide whether it is fatal
                    warn_swallowed(_log, "result-queue-poll-failed", exc=exc,
                                   pending=len(outstanding))
                dead = [index for index, process in enumerate(self._processes)
                        if not process.is_alive()]
                if dead:
                    self._recover_workers(dead, "crash", outstanding, replies,
                                          retried, rebinder)
                elif time.monotonic() > deadline:
                    owing = sorted({self._worker_for(key)
                                    for key in outstanding})
                    self.stats.command_timeouts += len(outstanding)
                    self._recover_workers(owing, "timeout", outstanding,
                                          replies, retried, rebinder)
                else:
                    continue
                deadline = time.monotonic() + self.reply_timeout
                continue
            self._absorb_reply(reply, outstanding, replies, retried, rebinder)
            deadline = time.monotonic() + self.reply_timeout
        return replies

    def _absorb_reply(self, reply: tuple, outstanding: dict,
                      replies: dict, retried: set,
                      rebinder: Optional[Rebinder]) -> None:
        key, status, payload = reply
        entries = outstanding.get(key)
        if not entries:
            # a killed-for-hanging worker that squeezed a reply out before
            # the SIGKILL landed, after recovery already settled this key
            warn_swallowed(_log, "unexpected-pool-reply", shard=key,
                           status=status)
            return
        message, record = entries.popleft()
        if not entries:
            del outstanding[key]
        command = message[0]
        if status == "error":
            if command == "repair" and rebinder is not None \
                    and key not in retried:
                log_event(_log, "warning", "shard-repair-errored-retrying",
                          shard=key, generation=self.generation)
                self._queue_retry(key, message, record, outstanding, retried,
                                  rebinder)
                return
            raise self._fail(
                f"worker failed for shard {key!r} on {command!r}:\n{payload}")
        if record:
            replies[key] = (status, payload)
        elif command == "bind":
            # a recovery rebind outside bind_all: keep the counters honest
            self.stats.binds += 1
            if telemetry.TELEMETRY.enabled:
                telemetry.inc("repro_pool_binds_total", shard=key)

    def _queue_retry(self, key: str, message: tuple, record: bool,
                     outstanding: dict, retried: set,
                     rebinder: Rebinder) -> None:
        """Queue a rebind plus the original repair for one more attempt."""
        retried.add(key)
        self.stats.retries += 1
        if telemetry.TELEMETRY.enabled:
            telemetry.inc("repro_pool_retries_total", shard=key)
        bind_message = ("bind", key) + tuple(rebinder(key))
        entries = outstanding.setdefault(key, deque())
        entries.append((bind_message, False))
        entries.append((message, record))
        worker_queue = self._task_queues[self._worker_for(key)]
        worker_queue.put(bind_message)
        worker_queue.put(message)

    def _terminate_worker(self, index: int) -> None:
        process = self._processes[index]
        if process.is_alive():
            process.terminate()
            process.join(timeout=self.stop_grace)
        if process.is_alive():
            process.kill()
        process.join(timeout=self.stop_grace)

    def _recover_workers(self, indices: list, reason: str, outstanding: dict,
                         replies: dict, retried: set,
                         rebinder: Optional[Rebinder]) -> None:
        """Respawn dead/hung workers and re-drive what they still owed."""
        started = time.perf_counter()
        names = [self._processes[index].name for index in indices]
        # 1) make death certain: the timeout path arrives here with hung
        #    (not dead) workers, and even a crashed one needs reaping
        for index in indices:
            self._terminate_worker(index)
        self.stats.worker_deaths += len(indices)
        if telemetry.TELEMETRY.enabled:
            telemetry.inc("repro_pool_worker_deaths_total", len(indices),
                          reason=reason)
        # 2) absorb replies that landed before the death — a key answered
        #    just before the crash must not be re-driven
        while True:
            try:
                reply = self._result_queue.get_nowait()
            except queue.Empty:
                break
            self._absorb_reply(reply, outstanding, replies, retried, rebinder)
        # 3) record standing replicas that died outside this barrier, then
        #    respawn each worker on a fresh task queue (the old queue may
        #    hold undelivered commands for re-driven keys); no fault plan —
        #    the scripted chaos already fired
        dead_set = set(indices)
        lost = {key for key, worker in self._assignment.items()
                if worker in dead_set and key not in outstanding}
        self._lost.update(lost)
        for index in indices:
            old_queue = self._task_queues[index]
            try:
                old_queue.close()
                old_queue.cancel_join_thread()
            except Exception as exc:
                warn_swallowed(_log, "dead-task-queue-close-failed", exc=exc,
                               worker=index)
            self._task_queues[index] = self._context.Queue()
            self._processes[index] = self._spawn_worker(index, None)
            self.stats.respawns += 1
            if telemetry.TELEMETRY.enabled:
                telemetry.inc("repro_pool_respawns_total")
        # 4) re-drive every command the dead workers still owed
        redriven = 0
        for key in sorted(outstanding):
            if self._worker_for(key) not in dead_set:
                continue
            if key in retried:
                raise self._fail(
                    f"shard {key!r} lost its worker twice in one barrier "
                    f"({reason}); giving up")
            entries = outstanding.pop(key)
            resend: deque = deque()
            for message, record in entries:
                command = message[0]
                if command == "bind":
                    resend.append((message, record))
                elif command == "ship":
                    # the replica died with its worker: answer stale on its
                    # behalf so the coordinator rebinds
                    if record:
                        replies[key] = ("stale",
                                        f"worker died mid-ship ({reason})")
                elif command == "repair":
                    if rebinder is None:
                        raise self._fail(
                            f"worker running shard {key!r} died mid-repair "
                            f"({reason}) with no rebinder available")
                    resend.append((("bind", key) + tuple(rebinder(key)),
                                   False))
                    resend.append((message, record))
                else:
                    raise self._fail(
                        f"unrecoverable command {command!r} owed for shard "
                        f"{key!r} by a dead worker ({reason})")
            if resend:
                retried.add(key)
                self.stats.retries += 1
                redriven += 1
                if telemetry.TELEMETRY.enabled:
                    telemetry.inc("repro_pool_retries_total", shard=key)
                outstanding[key] = deque(resend)
                worker_queue = self._task_queues[self._worker_for(key)]
                for message, _record in resend:
                    worker_queue.put(message)
        elapsed = time.perf_counter() - started
        if telemetry.TELEMETRY.enabled:
            telemetry.observe("repro_pool_recovery_seconds", elapsed)
        log_event(_log, "warning", "pool-workers-respawned", workers=names,
                  reason=reason, redriven=redriven, lost_replicas=len(lost),
                  generation=self.generation,
                  recovery_seconds=round(elapsed, 4))

    # ------------------------------------------------------------------
    # inline dispatch (same protocol, simulated supervision)
    # ------------------------------------------------------------------

    def _dispatch_inline(self, commands: list[tuple],
                         rebinder: Optional[Rebinder]) -> dict[str, tuple[str, object]]:
        replies: dict[str, tuple[str, object]] = {}
        retried: set[str] = set()
        pending = deque((message, True) for message in commands)
        barrier_keys = {message[1] for message in commands}
        while pending:
            message, record = pending.popleft()
            command, key = message[0], message[1]
            fault = None
            if self._fault_plan is not None:
                fault = self._fault_plan.take("worker.command", worker=0,
                                              command=command, key=key)
            if fault is not None and fault.kind == "slow":
                time.sleep(fault.seconds)
                fault = None
            if fault is not None and fault.kind in ("crash", "hang", "wedge"):
                # simulate the process death + respawn: every inline replica
                # dies, and the interrupted command is re-driven once
                self._simulate_inline_death(fault, barrier_keys)
                if command == "ship":
                    if record:
                        replies[key] = ("stale",
                                        "worker died mid-ship (simulated)")
                    continue
                if key not in retried and (command == "bind"
                                           or rebinder is not None):
                    retried.add(key)
                    self.stats.retries += 1
                    if telemetry.TELEMETRY.enabled:
                        telemetry.inc("repro_pool_retries_total", shard=key)
                    pending.appendleft((message, record))
                    if command == "repair":
                        pending.appendleft(
                            (("bind", key) + tuple(rebinder(key)), False))
                    continue
                raise self._fail(
                    f"inline worker died on {command!r} for shard {key!r} "
                    f"beyond what one retry can heal")
            try:
                if fault is not None:
                    _faults.perform(fault)
                result = _handle_command(self._inline_states, message)
            except WorkerPoolError:
                raise
            except Exception as exc:
                if command == "repair" and rebinder is not None \
                        and key not in retried:
                    state = self._inline_states.pop(key, None)
                    if state is not None:
                        state.close()
                    retried.add(key)
                    self.stats.retries += 1
                    if telemetry.TELEMETRY.enabled:
                        telemetry.inc("repro_pool_retries_total", shard=key)
                    log_event(_log, "warning",
                              "shard-repair-errored-retrying", shard=key,
                              error=f"{type(exc).__name__}: {exc}")
                    pending.appendleft((message, record))
                    pending.appendleft(
                        (("bind", key) + tuple(rebinder(key)), False))
                    continue
                raise self._fail(
                    f"inline worker failed on {command!r} for shard "
                    f"{key!r}: {exc}") from exc
            if record:
                replies[key] = result
            elif command == "bind":
                self.stats.binds += 1
                if telemetry.TELEMETRY.enabled:
                    telemetry.inc("repro_pool_binds_total", shard=key)
        return replies

    def _simulate_inline_death(self, fault, barrier_keys: set) -> None:
        lost = set(self._inline_states) - barrier_keys
        for state in self._inline_states.values():
            state.close()
        self._inline_states.clear()
        self._lost.update(lost)
        reason = "timeout" if fault.kind in ("hang", "wedge") else "simulated"
        self.stats.worker_deaths += 1
        self.stats.respawns += 1
        if fault.kind in ("hang", "wedge"):
            self.stats.command_timeouts += 1
        if telemetry.TELEMETRY.enabled:
            telemetry.inc("repro_pool_worker_deaths_total", reason=reason)
            telemetry.inc("repro_pool_respawns_total")
        log_event(_log, "warning", "pool-workers-respawned",
                  workers=["inline"], reason=reason,
                  lost_replicas=len(lost), generation=self.generation)

    # ------------------------------------------------------------------
    # the shard protocol
    # ------------------------------------------------------------------

    def bind(self, key: str, payload: dict, namespace: str,
             core: frozenset[str], rules: RuleSet,
             config: RepairConfig) -> None:
        """Build (or rebuild) the standing replica for ``key`` (barrier)."""
        self.bind_all([(key, payload, namespace, core, rules, config)])

    def bind_all(self, binds: list[tuple]) -> None:
        """Bind several shards in one barrier (parallel across workers)."""
        if not binds:
            return
        with self._lock:
            self._dispatch([("bind",) + tuple(bind) for bind in binds])
            self.stats.binds += len(binds)
            if telemetry.TELEMETRY.enabled:
                for bind in binds:
                    telemetry.inc("repro_pool_binds_total", shard=bind[0])

    def ship(self, key: str, delta: GraphDelta) -> bool:
        """Ship one projected committed delta to ``key``'s replica.

        Returns ``True`` when the replica applied it, ``False`` when the
        worker reported the replica stale (dropped) — rebind before the next
        repair.
        """
        return self.ship_all([(key, delta)])[key]

    def ship_all(self, ships: list[tuple[str, GraphDelta]]) -> dict[str, bool]:
        """Ship several shards' deltas in one barrier (parallel across
        workers); returns per-key ``True`` (applied) / ``False`` (replica
        reported stale — rebind before the next repair)."""
        if not ships:
            return {}
        with self._lock:
            replies = self._dispatch([("ship", key, delta)
                                      for key, delta in ships])
            self.stats.deltas_shipped += len(ships)
            if telemetry.TELEMETRY.enabled:
                for key, _delta in ships:
                    telemetry.inc("repro_pool_ships_total", shard=key)
        return {key: replies[key][0] == "ok" for key, _delta in ships}

    def repair(self, keys: list[str], context: dict | None = None,
               rebinder: Optional[Rebinder] = None) -> list[ShardResult]:
        """One repair barrier over ``keys``; results in ``keys`` order.

        ``context`` is the coordinator's trace context: when given, each
        worker collects telemetry for its command and ships the registry
        snapshot and finished spans back on the :class:`ShardResult`.

        ``rebinder`` maps a shard key to fresh bind arguments and arms the
        one-retry recovery path: a worker that dies (or errors) mid-repair
        is respawned, the shard rebound, and the repair retried once.
        Without it, such failures shut the pool down and raise.
        """
        with self._lock:
            if context is None:
                commands = [("repair", key) for key in keys]
            else:
                commands = [("repair", key, context) for key in keys]
            replies = self._dispatch(commands, rebinder)
            self.stats.repair_calls += 1
            self.stats.shard_repairs += len(keys)
            if telemetry.TELEMETRY.enabled:
                for key in keys:
                    telemetry.inc("repro_pool_shard_repairs_total", shard=key)
        results = []
        for key in keys:
            status, payload = replies[key]
            if status != "ok":  # pragma: no cover - repair never replies stale
                raise self._fail(f"unexpected {status!r} reply for {key!r}")
            if telemetry.TELEMETRY.enabled:
                telemetry.observe("repro_pool_shard_repair_seconds",
                                  payload.elapsed_seconds, shard=key)
            results.append(payload)
        return results
