"""The benchmark's workloads: inputs made from a seed, the timed protocol of
each workload, and the oracles that check the program's outputs.

Inputs.  Every workload starts from one generated instance per domain
(generator seed ``INSTANCE_SEED``, 5% injected errors).  ``--seed`` draws a
permutation of that instance's element ids, so every seed is a different
input with the same structure: it reorders every id-based tie-break in
matching and in the violation queue, but not the amount of repair work.
Instances drawn from different generator seeds differ by up to 35% in
matcher work at kg@4000 (nodes tried 221k-334k over seeds 0-7), more than
any regression bound, so a seed that redrew the structure would hide the
changes the benchmark exists to catch.  The ingest edit stream is drawn
from ``--seed`` in full.

Repair workloads (``repair-*``) open a ``RepairSession`` on a fresh copy
and call ``repair()``: timed repetitions until ``seconds`` have passed
(at least ``min_reps``).
``ingest-kg`` drives a durable tenant behind ``IngestFront``: a
deterministic manual-tick history timed in blocks of ticks, service
set-ups and an open loop at ``base_rate`` edits/s for ``seconds``, with
cold restores of the history before and after the loop.

Host speed.  The development host (a shared 2-CPU VM) runs the same work
up to about 1.6x slower for seconds to minutes at a time, so a raw timing
moves between runs by more than any useful bound.  ``cost`` divides the
time of one unit of the program's work (a ``repair()`` call; a block of
ingest ticks, per tick) by the mean of two yardstick timings, one just
before and one just after it.  ``setup_s`` does the same to each set-up
and multiplies by ``REFERENCE_YARDSTICK_S``: set-up time at the host's
fast speed.  The yardstick is a fixed loop of benchmark code that the
host slows about as much and no change to the program moves.  Raw
timings are reported beside them.
"""

from __future__ import annotations

import gc
import math
import random
import shutil
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from repro.api import RepairConfig, RepairSession
from repro.datasets.registry import build_workload
from repro.durability import DurabilityConfig
from repro.exceptions import AdmissionError, IngestError
from repro.graph.delta import replay_delta
from repro.graph.property_graph import PropertyGraph
from repro.ingest import IngestFront, TenantQuota
from repro.rules.grr import RuleSet
from repro.rules.library import KG
from repro.service import GraphRepairService

import spans as tracing
from stats import median, tail_percentile

INSTANCE_SEED = 0
ERROR_RATE = 0.05
SHARD_WORKERS = 2
TENANT = "kg"
#: the ingest tenant's admission quota: defaults, except that a full queue
#: refuses the edit instead of blocking the open-loop generator
QUOTA = TenantQuota(policy="reject")
#: the yardstick's work: chunks, and items per chunk
YARDSTICK_CHUNKS = 40
YARDSTICK_CHUNK = 1000
#: the yardstick's time at the development host's fast speed (27 ms; 43 ms
#: at its slow one): ``setup_s`` is reported in seconds at that speed
REFERENCE_YARDSTICK_S = 0.027
#: ingest history ticks per ``cost`` sample (about half a second)
TICKS_PER_BLOCK = 10
EDIT_KINDS = ("drop_nationality", "second_birthplace", "dup_lives_in",
              "touch_property")
COMMON_PHASES = ("index-build", "initial-detection", "incremental-maintenance",
                 "incompleteness-recheck", "validation", "execution",
                 "final-check")


@dataclass(frozen=True)
class Params:
    """Sizes of one benchmark mode (full, or the tiny smoke mode)."""

    kg_scale: int = 1500
    social_scale: int = 500
    setups: int = 10
    min_reps: int = 5
    min_reps_sharded: int = 3
    history_ticks: int = 200
    edits_per_tick: int = 8
    restores: int = 9
    base_rate: float = 100.0
    drain_timeout: float = 30.0


FULL = Params()
SMOKE = Params(kg_scale=80, social_scale=40, setups=4, min_reps=1,
               min_reps_sharded=1, history_ticks=10, drain_timeout=10.0)


@dataclass
class Outcome:
    """What one measurement pass returns (units are attached by run.py)."""

    samples: dict[str, list[float]] = field(
        default_factory=lambda: defaultdict(list))
    #: metrics whose value is their fastest sample, not the median
    fastest: set[str] = field(default_factory=set)
    values: dict[str, float | None] = field(default_factory=dict)
    layers: dict[str, float | None] = field(default_factory=dict)
    rows: list[dict] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    trace_events: list[dict] = field(default_factory=list)

    def check(self, ok: bool, problem: str) -> None:
        """Count one attempted operation; record it as failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(problem)


class _Item:
    __slots__ = ("number", "name", "pair")

    def __init__(self, number: int, name: str, pair: tuple[int, int]) -> None:
        self.number, self.name, self.pair = number, name, pair


def yardstick_s() -> float:
    """One timing of the yardstick: objects, strings, tuples and small
    dicts allocated, read and freed, the kinds of interpreter work the
    program does, in chunks small enough to leave peak RSS alone.  With a
    tight dict-update loop, tried first, a ``repair()`` call's cost read
    4-15% lower at the development host's slow speed than at its fast
    one; with this loop, within 3%."""
    started = time.perf_counter()
    for chunk in range(YARDSTICK_CHUNKS):
        items = []
        for number in range(chunk * YARDSTICK_CHUNK,
                            (chunk + 1) * YARDSTICK_CHUNK):
            item = _Item(number, str(number), (number, number + 1))
            items.append({"item": item, "name": item.name})
        kept = {entry["name"] for entry in items if entry["item"].number % 3}
        del items, kept
    return time.perf_counter() - started


def in_yardsticks(seconds: float, before: float, after: float) -> float:
    """``seconds`` of work over the mean of the yardstick timings taken
    just before and just after it."""
    return seconds / ((before + after) / 2.0)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def relabel(graph: PropertyGraph, rng: random.Random) -> PropertyGraph:
    """The same graph with its node ids and edge ids each permuted by ``rng``
    (insertion order, labels and properties unchanged)."""
    node_ids = graph.node_ids()
    edge_ids = graph.edge_ids()
    new_node = dict(zip(node_ids, rng.sample(node_ids, len(node_ids))))
    new_edge = rng.sample(edge_ids, len(edge_ids))
    out = PropertyGraph(name=graph.name)
    for node in graph.nodes():
        out.add_node(node.label, node.properties, node_id=new_node[node.id])
    for edge, edge_id in zip(graph.edges(), new_edge):
        out.add_edge(new_node[edge.source], new_node[edge.target], edge.label,
                     edge.properties, edge_id=edge_id)
    return out


@dataclass(frozen=True)
class Edit:
    """One ingest edit, applied by the scheduler at commit time.

    ``request`` is the edit's index in the stream: the tracer joins the
    edit's queue, commit, WAL and repair spans through it.  Each kind is
    written to apply to whatever state the earlier edits left.
    """

    request: int
    kind: str
    person: str
    cities: tuple[str, str]

    def __call__(self, graph: PropertyGraph) -> None:
        person = self.person
        if self.kind == "drop_nationality":
            for edge_id in sorted(graph.out_edge_ids_with_label(
                    person, KG["NATIONALITY"]))[:1]:
                graph.remove_edge(edge_id)
        elif self.kind == "second_birthplace":
            born = {edge.target for edge in graph.out_edges_with_label(
                person, KG["BORN_IN"])}
            for city in self.cities:
                if city not in born:
                    graph.add_edge(person, city, KG["BORN_IN"],
                                   {"confidence": 0.5})
                    break
        elif self.kind == "dup_lives_in":
            for edge in graph.out_edges_with_label(person, KG["LIVES_IN"])[:1]:
                graph.add_edge(person, edge.target, KG["LIVES_IN"],
                               dict(edge.properties))
        else:  # touch_property: a key no rule reads
            graph.update_node(person, {"benchNote": self.request})


def edit_stream(graph: PropertyGraph, rng: random.Random, count: int,
                first: int = 0) -> list[Edit]:
    """``count`` edits, 25% of each kind in every block of four.

    Targets are persons whose name is unique, so no merge rule can remove
    them while the stream runs.
    """
    names: dict[str, list[str]] = defaultdict(list)
    for node in graph.nodes_with_label(KG["PERSON"]):
        names[node.properties.get("name")].append(node.id)
    persons = sorted(ids[0] for ids in names.values() if len(ids) == 1)
    cities = sorted(graph.node_ids_with_label(KG["CITY"]))
    edits = []
    while len(edits) < count:
        for kind in rng.sample(EDIT_KINDS, len(EDIT_KINDS)):
            edits.append(Edit(first + len(edits), kind, rng.choice(persons),
                              tuple(rng.sample(cities, 2))))
    return edits[:count]


@dataclass
class Inputs:
    graph: PropertyGraph
    rules: RuleSet
    history: list[Edit] = field(default_factory=list)
    live: list[Edit] = field(default_factory=list)
    #: the oracle's expected repaired graph (repair workloads)
    reference: PropertyGraph | None = None


def make_inputs(workload: str, params: Params, seed: int,
                seconds: float) -> Inputs:
    """Everything the program under test receives, made from ``seed``."""
    domain, scale = (("social", params.social_scale)
                     if workload == "repair-social" else ("kg", params.kg_scale))
    instance = build_workload(domain, scale=scale, error_rate=ERROR_RATE,
                              seed=INSTANCE_SEED)
    rng = random.Random(seed)
    inputs = Inputs(relabel(instance.dirty, rng), instance.rules)
    if workload == "ingest-kg":
        history = params.history_ticks * params.edits_per_tick
        live = int(params.base_rate * seconds)
        inputs.history = edit_stream(inputs.graph, rng, history)
        inputs.live = edit_stream(inputs.graph, rng, live, first=history)
    return inputs


# ---------------------------------------------------------------------------
# repair workloads
# ---------------------------------------------------------------------------


def repair_config(workload: str) -> RepairConfig:
    if workload == "repair-kg-sharded":
        return RepairConfig.sharded(workers=SHARD_WORKERS)
    return RepairConfig.fast()


@dataclass
class _Rep:
    graph: PropertyGraph
    report: object
    fanout: object
    setup_s: float
    repair_s: float


def _open(graph, rules, config) -> tuple[RepairSession, PropertyGraph, float]:
    """A session on a fresh copy of ``graph``, and its set-up time."""
    working = graph.copy()
    gc.collect()
    started = time.perf_counter()
    session = RepairSession(working, rules, config=config)
    return session, working, time.perf_counter() - started


def _setup_seconds(graph, rules, config) -> float:
    # a helper, so that no closed session outlives it: a bigger heap slows
    # every later garbage collection and raises peak RSS
    session, _, setup_s = _open(graph, rules, config)
    session.close()
    return setup_s


def _repetition(graph, rules, config) -> _Rep:
    session, working, setup_s = _open(graph, rules, config)
    try:
        started = time.perf_counter()
        report = session.repair()
        repair_s = time.perf_counter() - started
        fanout = getattr(session.backend, "last_fanout", None)
    finally:
        session.close()
    return _Rep(working, report, fanout, setup_s, repair_s)


def _check_repair(out: Outcome, rep: _Rep, reference, what: str) -> None:
    report = rep.report
    out.check(report.reached_fixpoint and report.remaining_violations == 0,
              f"{what}: no fixpoint ({report.remaining_violations} remaining)")
    if reference is not None:
        out.check(rep.graph.structurally_equal(reference),
                  f"{what}: repaired graph differs from the reference")


def measure_repair(workload: str, inputs: Inputs, params: Params,
                   seconds: float, tracer=None) -> Outcome:
    """Bulk repair: ``setup_s``, ``repair_ms`` and ``cost`` per repetition.

    Each unit of work (a bare set-up, a repetition) is followed by one
    yardstick timing, so every unit lies between two of them.

    Every repetition opens its own session, so each gives one ``setup_s``
    sample; bare set-ups make up the difference to ``params.setups``.
    The oracle's reference is the first repetition's result, except on the
    sharded workload, whose every result must equal the sequential
    ``fast`` backend's (computed untimed).

    A repetition's ``cost`` is its ``repair()`` time over the mean of the
    yardstick timings just before and just after it; the run reports the
    median.  ``repair_ms`` is the fastest raw ``repair()`` time.

    There is no separate warm-up: the program keeps no state between
    sessions (the sharded backend spawns its workers for every fan-out),
    and a batch repair is usually the first in its process.  On the
    sharded workload the untimed ``fast`` reference runs first in any case.
    """
    out = Outcome(fastest={"repair_ms"})
    config = repair_config(workload)
    graph, rules = inputs.graph, inputs.rules
    sharded = workload == "repair-kg-sharded"
    min_reps = params.min_reps_sharded if sharded else params.min_reps
    if inputs.reference is None and sharded:
        reference = _repetition(graph, rules, RepairConfig.fast())
        _check_repair(out, reference, None, "fast reference")
        inputs.reference = reference.graph
        del reference
    before = yardstick_s()
    if tracer is None:
        for _ in range(params.setups - min_reps):
            setup_s = _setup_seconds(graph, rules, config)
            after = yardstick_s()
            out.samples["setup_s"].append(
                REFERENCE_YARDSTICK_S * in_yardsticks(setup_s, before, after))
            before = after
            out.check(True, "")
    # each repetition is summarised and dropped at once: keeping repaired
    # graphs alive would make peak RSS grow with the repetition count
    per_rep_layers = []
    started = time.perf_counter()
    index = 0
    while index < min_reps or time.perf_counter() - started < seconds:
        first_span = len(tracer.spans) if tracer is not None else 0
        if tracer is not None:
            tracer.phase = f"rep{index}"
        rep = _repetition(graph, rules, config)
        if tracer is not None:
            tracer.phase = ""
        after = yardstick_s()
        cost = in_yardsticks(rep.repair_s, before, after)
        setup_s = REFERENCE_YARDSTICK_S * in_yardsticks(rep.setup_s, before,
                                                        after)
        before = after
        _check_repair(out, rep, inputs.reference, f"repetition {index}")
        if inputs.reference is None:
            inputs.reference = rep.graph
        report = rep.report
        counts = {"repairs_applied": report.repairs_applied,
                  "violations_detected": report.violations_detected,
                  "nodes_tried": report.matching_stats.nodes_tried,
                  "seeded_searches": report.seeded_searches,
                  "maintenance_passes": report.matching_stats.maintenance_passes}
        out.values.update(counts)
        out.samples["setup_s"].append(setup_s)
        out.samples["repair_ms"].append(rep.repair_s * 1000.0)
        out.samples["cost"].append(cost)
        row = {"kind": "rep", "index": index,
               "wall_s": rep.setup_s + rep.repair_s, "setup_s": setup_s,
               "setup_wall_s": rep.setup_s,
               "repair_ms": rep.repair_s * 1000.0, "cost": cost,
               "yardstick_ms": after * 1000.0, **counts}
        if tracer is not None:
            layers = _repair_layers(workload, tracer.spans[first_span:], rep)
            per_rep_layers.append(layers)
            row.update(layers)
        out.rows.append(row)
        del rep, report
        index += 1
    if per_rep_layers:
        out.layers = {name: median([layers[name] for layers in per_rep_layers])
                      for name in per_rep_layers[0]}
    return out


def _repair_layers(workload: str, window, rep: _Rep) -> dict[str, float]:
    report = rep.report
    layers = tracing.common_layer_metrics(window)
    timings = report.timings.as_dict()
    for phase in COMMON_PHASES:
        layers[f"repair.phase.{phase}_s"] = timings.get(phase, 0.0)
    detected = report.violations_detected
    layers["repair.applied_ratio"] = (report.repairs_applied / detected
                                      if detected else 0.0)
    layers["matching.nodes_tried"] = float(report.matching_stats.nodes_tried)
    layers["matching.seeded_searches"] = float(report.seeded_searches)
    layers["repair.maintenance_passes"] = float(
        report.matching_stats.maintenance_passes)
    if workload == "repair-kg-sharded":
        fanout = rep.fanout
        layers["parallel.accepted_ratio"] = (
            fanout.accepted / fanout.shard_repairs
            if fanout.shard_repairs else 0.0)
        layers["parallel.halo_fraction"] = fanout.halo_fraction
    return layers


# ---------------------------------------------------------------------------
# ingest workload
# ---------------------------------------------------------------------------


@dataclass
class Step:
    """One open-loop step at a fixed offered rate."""

    rate: float
    edits: list[Edit]
    due: list[float]
    late: list[float]
    acked: list[float]
    repaired: list[float]
    sequence: list[int]
    backlog_max: int = 0

    def latencies_ms(self, done: list[float]) -> list[float]:
        """Due time to ``done`` per edit; edits that never got there count
        as missing every limit (``inf``)."""
        return [(end - due) * 1000.0 if not math.isnan(end) else math.inf
                for due, end in zip(self.due, done)]

    @property
    def failed(self) -> int:
        return sum(1 for end in self.repaired if math.isnan(end))


def open_loop(front: IngestFront, edits: list[Edit], rate: float,
              timeout: float) -> Step:
    """Submit ``edits`` on a fixed schedule, whatever the system does.

    Latency is timed from each edit's due time, so a stall also charges
    the wait it imposes on the edits due after it.  Acks and repair
    waiters resolve on the scheduler thread.
    """
    count = len(edits)
    nan = math.nan
    start = time.perf_counter() + 0.01
    step = Step(rate, edits, [start + i / rate for i in range(count)],
                [nan] * count, [nan] * count, [nan] * count, [0] * count)
    lock = threading.Lock()
    finished = threading.Event()
    state = {"acked": 0, "settled": 0}

    def settle() -> None:
        with lock:
            state["settled"] += 1
            if state["settled"] == count:
                finished.set()

    def on_repaired(index: int, satisfied: bool) -> None:
        if satisfied:
            step.repaired[index] = time.perf_counter()
        settle()

    def on_ack(index: int):
        def callback(ack) -> None:
            with lock:
                state["acked"] += 1
            if ack.error is not None:
                settle()
                return
            step.acked[index] = time.perf_counter()
            step.sequence[index] = ack.sequence
            front.add_repair_waiter(
                TENANT, ack.sequence,
                lambda satisfied: on_repaired(index, satisfied))
        return callback

    for index, edit in enumerate(edits):
        delay = step.due[index] - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        step.late[index] = time.perf_counter() - step.due[index]
        try:
            ack = front.submit(TENANT, edit)
        except (AdmissionError, IngestError):
            with lock:
                state["acked"] += 1
            settle()
            continue
        with lock:
            step.backlog_max = max(step.backlog_max,
                                   index + 1 - state["acked"])
        ack.add_done_callback(on_ack(index))
    finished.wait(timeout)
    return step


def _tree_bytes(path: Path) -> int:
    return sum(entry.stat().st_size for entry in path.rglob("*")
               if entry.is_file())


def _feed_replays(service: GraphRepairService, start: PropertyGraph) -> bool:
    """Changefeed oracle: replaying every record onto the tenant's opening
    graph reconstructs the live graph."""
    replica = start.copy()
    for record in service.deltas(TENANT):
        replay_delta(replica, record.delta)
    return replica.structurally_equal(service.graph(TENANT))


def _tenant(graph: PropertyGraph, rules: RuleSet,
            directory: Path) -> tuple[GraphRepairService, IngestFront]:
    """A durable tenant served over ``graph``, registered with an ingest
    front (not started)."""
    service = GraphRepairService()
    service.serve(TENANT, graph, rules, durable=DurabilityConfig(dir=directory))
    front = IngestFront(service)
    front.register(TENANT, QUOTA)
    return service, front


def _history(inputs: Inputs, params: Params, root: Path, out: Outcome):
    """Manual ticks over the history stream: a deterministic durable log.
    Returns the final graph, the tenant's directory, the sink's counters
    and the directory's size in bytes.

    Each block of ``TICKS_PER_BLOCK`` ticks (submits, commit, WAL append,
    repair) gives one ``cost`` sample: its time per tick over the mean of
    the yardstick timings just before and just after it.
    """
    service, front = _tenant(inputs.graph.copy(), inputs.rules,
                             root / "history")
    acks = []
    per_tick = params.edits_per_tick
    before = yardstick_s()
    started = time.perf_counter()
    for tick in range(params.history_ticks):
        for edit in inputs.history[tick * per_tick:(tick + 1) * per_tick]:
            acks.append(front.submit(TENANT, edit))
        front.tick()
        if (tick + 1) % TICKS_PER_BLOCK == 0:
            block_s = time.perf_counter() - started
            after = yardstick_s()
            cost = in_yardsticks(block_s / TICKS_PER_BLOCK, before, after)
            out.samples["cost"].append(cost)
            out.rows.append({"kind": "block", "index": len(out.rows),
                             "wall_s": block_s, "cost": cost,
                             "yardstick_ms": after * 1000.0})
            before = after
            started = time.perf_counter()
    for index, ack in enumerate(acks):
        out.check(ack.done() and ack.error is None,
                  f"history edit {index}: ack {ack.error!r}")
    out.check(_feed_replays(service, inputs.graph),
              "history: changefeed replay differs from the live graph")
    sink = service.durability(TENANT)
    final = service.graph(TENANT).copy()
    stats = sink.stats()
    front.close()
    service.close()
    out.values.update({"history_edits": len(acks),
                       "history_records": stats["records_appended"],
                       "history_snapshots": stats["snapshots_written"]})
    return final, sink.directory, stats, _tree_bytes(sink.directory)


def _restore(inputs: Inputs, tenant_dir: Path, copy_root: Path,
             final: PropertyGraph, out: Outcome) -> None:
    """One timed cold restore from a fresh copy of the tenant's directory."""
    shutil.copytree(tenant_dir, copy_root / TENANT)
    service = GraphRepairService()
    gc.collect()
    started = time.perf_counter()
    service.restore(TENANT, inputs.rules, durable=DurabilityConfig(dir=copy_root))
    out.samples["restore_s"].append(time.perf_counter() - started)
    out.check(service.graph(TENANT).structurally_equal(final),
              "restore: graph differs from the closed tenant")
    out.values["records_replayed"] = \
        service.recovery_info(TENANT).records_replayed
    service.close()
    shutil.rmtree(copy_root)


def _setup(inputs: Inputs, directory: Path,
           out: Outcome) -> tuple[GraphRepairService, IngestFront]:
    """One timed set-up: service, serve, register and start, between two
    yardstick timings."""
    graph = inputs.graph.copy()
    gc.collect()
    before = yardstick_s()
    started = time.perf_counter()
    service, front = _tenant(graph, inputs.rules, directory)
    front.start()
    setup_s = time.perf_counter() - started
    out.samples["setup_s"].append(
        REFERENCE_YARDSTICK_S * in_yardsticks(setup_s, before, yardstick_s()))
    out.check(True, "")
    return service, front


def _step_row(step: Step) -> dict:
    acked = step.latencies_ms(step.acked)
    done = step.latencies_ms(step.repaired)
    return {"kind": "step", "rate_eps": step.rate,
            "wall_s": (max(step.repaired) - step.due[0]
                       if step.failed == 0 else math.nan),
            "edits": len(step.edits), "failed": step.failed,
            "ack_p50_ms": median(acked), "ack_p99_ms": tail_percentile(acked, 99),
            "repaired_p50_ms": median(done),
            "repaired_p99_ms": tail_percentile(done, 99)}


def measure_ingest(inputs: Inputs, params: Params, seconds: float,
                   workdir: Path, tracer=None) -> Outcome:
    """Durable streaming ingest (see the module docstring).

    Each phase runs in its own helper, so that its services, graphs and
    acks are garbage before the next phase is timed.
    """
    out = Outcome(fastest={"restore_s"})
    root = Path(tempfile.mkdtemp(prefix="ingest-", dir=workdir))

    def phase(name: str) -> None:
        if tracer is not None:
            tracer.phase = name

    def cluster(index: int) -> None:
        """A third of the restores and of the bare set-ups: spread over
        the run, a host slowdown of some seconds reaches a minority."""
        phase("restore")
        for _ in range(params.restores // 3):
            _restore(inputs, tenant_dir, root / "restore", final, out)
        phase("setup")
        for other in range((params.setups - 1) // 3):
            directory = root / f"setup{index}-{other}"
            service, front = _setup(inputs, directory, out)
            front.close()
            service.close()
        phase("")

    try:
        phase("history")
        final, tenant_dir, sink, log_bytes = _history(inputs, params, root, out)
        cluster(0)
        phase("setup")
        service, front = _setup(inputs, root / "live", out)
        # the scheduler repairs only after a commit, so the input's own
        # errors would land on the first edits of the step: repair them first
        phase("")
        service.repair(TENANT)
        cluster(1)

        session = service.session(TENANT)
        before = _session_counters(session)
        base_count = int(params.base_rate * seconds)
        # the restores' graphs are garbage now; collect them here rather
        # than in a pause inside the timed step
        gc.collect()
        phase("step-base")
        cpu_s = time.process_time()
        base = open_loop(front, inputs.live[:base_count], params.base_rate,
                         seconds + params.drain_timeout)
        cpu_s = time.process_time() - cpu_s
        phase("")
        after = _session_counters(session)
        front.quiesce(timeout=params.drain_timeout)
        out.check(_feed_replays(service, inputs.graph),
                  "live: changefeed replay differs from the live graph")
        front.close()
        service.close()
        cluster(2)
    finally:
        shutil.rmtree(root, ignore_errors=True)

    for index, done in enumerate(base.repaired):
        out.check(not math.isnan(done),
                  f"edit {base.edits[index].request}: not repaired")
    ack_ms = base.latencies_ms(base.acked)
    repaired_ms = base.latencies_ms(base.repaired)
    out.samples["ack_p50_ms"] = ack_ms
    out.samples["repaired_p50_ms"] = repaired_ms
    out.values["ack_p99_ms"] = tail_percentile(ack_ms, 99)
    out.values["repaired_p99_ms"] = tail_percentile(repaired_ms, 99)
    out.rows = [{**_step_row(base), "cpu_s": cpu_s}, *out.rows]
    out.rows += [{"kind": "restore", "index": index, "wall_s": taken}
                 for index, taken in enumerate(out.samples["restore_s"])]
    if tracer is not None:
        out.layers = _ingest_layers(tracer, base, before, after, log_bytes,
                                    sink["changes_appended"],
                                    out.values["records_replayed"])
        out.rows[0].update(out.layers)
        out.trace_events = request_events(tracer, base)
    return out


def _session_counters(session: RepairSession) -> dict:
    report = session.report
    stats = session.stats
    return {"nodes_tried": stats.nodes_tried,
            "maintenance_passes": stats.maintenance_passes,
            "applied": report.repairs_applied if report else 0,
            "detected": report.violations_detected if report else 0,
            "timings": report.timings.as_dict() if report else {}}


def _ingest_layers(tracer, base: Step, before: dict, after: dict,
                   log_bytes: int, changes: int,
                   replayed: int) -> dict[str, float | None]:
    measured = {"history", "restore", "setup", "step-base"}
    window = [span for span in tracer.spans if span.phase in measured]
    step = [span for span in tracer.spans if span.phase == "step-base"]
    layers = tracing.common_layer_metrics(window)
    layers["matching.seeded_searches"] = float(sum(
        span.args["seeded"] for span in window
        if span.name == "FastRepairCore.maintain" and span.args))
    layers["matching.nodes_tried"] = float(after["nodes_tried"]
                                           - before["nodes_tried"])
    layers["repair.maintenance_passes"] = float(
        after["maintenance_passes"] - before["maintenance_passes"])
    detected = after["detected"] - before["detected"]
    layers["repair.applied_ratio"] = ((after["applied"] - before["applied"])
                                      / detected if detected else 0.0)
    for phase in COMMON_PHASES:
        layers[f"repair.phase.{phase}_s"] = (after["timings"].get(phase, 0.0)
                                            - before["timings"].get(phase, 0.0))

    def durations_ms(name: str, spans) -> list[float]:
        return [span.duration * 1000.0 for span in spans if span.name == name]

    commits = [span for span in step if span.name == "RepairSession.apply_many"]
    waits = [(span.start - base.due[request - base.edits[0].request]) * 1000.0
             for span in commits for request in span.args["requests"]]
    # per-call latencies pool the history with the step: the step alone
    # makes too few repair calls to pin down a tail percentile
    streamed = [span for span in window
                if span.phase in ("history", "step-base")]
    repairs_ms = durations_ms("GraphRepairService.repair", streamed)
    appends_ms = durations_ms("WriteAheadLog.append", streamed)
    ticks = sum(span.duration for span in step if span.name == "IngestFront.tick")
    wall = max(base.repaired) - base.due[0]
    snapshots = [span for span in window
                 if span.name == "write_snapshot" and span.phase == "history"]
    recovers = [span.duration for span in window if span.name == "recover"]
    return {
        **layers,
        "ingest.queue_wait_ms_p50": median(waits) if waits else None,
        "ingest.queue_wait_ms_p99": tail_percentile(waits, 99),
        "ingest.commit_ms_p50": median(durations_ms(
            "RepairSession.apply_many", step)) if commits else None,
        "ingest.repair_ms_p50": median(repairs_ms) if repairs_ms else None,
        "ingest.repair_ms_p90": tail_percentile(repairs_ms, 90),
        "ingest.tick_busy_frac": ticks / wall if wall > 0 else None,
        "ingest.edits_per_commit": (sum(len(span.args["requests"])
                                        for span in commits) / len(commits)
                                    if commits else None),
        "ingest.backlog_max": float(base.backlog_max),
        "durability.wal_append_ms_p50": median(appends_ms) if appends_ms else None,
        "durability.wal_append_ms_p90": tail_percentile(appends_ms, 90),
        "durability.snapshot_write_s": sum(span.duration for span in snapshots),
        "durability.snapshots": float(len(snapshots)),
        "durability.recover_s": median(recovers) if recovers else None,
        "durability.records_replayed": float(replayed),
        "durability.bytes_per_change": log_bytes / changes if changes else None,
        "bench.generator_late_ms": tail_percentile(
            [late * 1000.0 for late in base.late], 99),
    }


def request_events(tracer, base: Step) -> list[dict]:
    """Chrome async events, one chain per base-step edit: queue → commit →
    WAL → repair, joined to the spans through the ack's sequence."""
    commits, appends, repairs = {}, {}, []
    for span in tracer.spans:
        if span.phase != "step-base" or not span.args:
            continue
        if span.name == "RepairSession.apply_many":
            commits[span.args["sequence"]] = span
        elif span.name == "WriteAheadLog.append":
            appends[span.args["sequence"]] = span
        elif span.name == "GraphRepairService.repair":
            repairs.append(span)
    events: list[dict] = []
    origin = tracer.origin
    for index, edit in enumerate(base.edits):
        sequence = base.sequence[index]
        commit = commits.get(sequence)
        if commit is None or math.isnan(base.repaired[index]):
            continue
        repair = next((span for span in repairs
                       if span.args["through"] >= sequence
                       and span.start >= commit.end), None)
        parts = [("queue", base.due[index], commit.start),
                 ("commit", commit.start, commit.end)]
        if sequence in appends:
            parts.append(("wal", appends[sequence].start, appends[sequence].end))
        if repair is not None:
            parts.append(("repair", repair.start, repair.end))
        args = {"request": edit.request, "sequence": sequence}
        chain = [("edit", base.due[index], base.repaired[index])] + parts
        for name, begin, end in chain:
            common = {"cat": "request", "id": edit.request, "pid": 1, "tid": 0,
                      "name": name, "args": args}
            events.append({**common, "ph": "b", "ts": (begin - origin) * 1e6})
            events.append({**common, "ph": "e", "ts": (end - origin) * 1e6})
    return events


def measure(workload: str, inputs: Inputs, params: Params, seconds: float,
            workdir: Path, tracer=None) -> Outcome:
    if workload == "ingest-kg":
        return measure_ingest(inputs, params, seconds, workdir, tracer=tracer)
    return measure_repair(workload, inputs, params, seconds, tracer=tracer)
