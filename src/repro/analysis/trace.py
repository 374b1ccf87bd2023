"""Post-run trace pass: happens-before, race and ledger rules (TA2xx, RC5xx).

The single controller records one execution trace per run (§4.1, the
Figure 3 timeline).  This pass loads a run into one :class:`RunRecord` —
the dispatched calls with their pool, dependencies and replayed interval,
the runtime spans, the shared-state access log and the device memory
ledgers — and checks every rule below exactly once over it:

========  ====================================================================
``TA201``  two busy intervals overlap on one pool (a pool time-shares)
``TA202``  a child span's interval escapes its parent's
``TA203``  a memory tag is still allocated at run end (leak)
``TA204``  a tag is freed twice without an allocation in between
``TA205``  a ledger event left a negative balance
``TA206``  device busy-time accounting disagrees with the timeline replay
``RC501``  conflicting accesses on two nodes with no happens-before edge
``RC502``  several ranks write one resource inside one dispatch whose
           protocol collects in nondeterministic order
``RC503``  access events reference a dispatch the trace never recorded
========  ====================================================================

A record has two loaders: :meth:`RunRecord.from_system` for a live system
or controller, and :meth:`RunRecord.from_chrome_trace` for an exported
``trace_event`` document, read exactly as a trace viewer sees it so a
golden trace file is itself a checkable artifact.  An exported trace
carries no access log and no ledgers, so there the RC rules validate the
recorded dependency structure alone.  :func:`audit_run` takes either
source, or a record built directly (as
:func:`~repro.analysis.modelcheck.cross_validate` does from a replayed
protocol schedule).

The simulated runtime executes one remote call at a time, so it can never
*show* a data race — but on a real cluster each resource pool runs
concurrently, and the only ordering guarantees are the ones the dataflow
actually expresses: program order within a pool, the future/lineage
dependency edges recorded in the execution trace, and the controller's own
sequential context (group construction, coordinated checkpoints) acting as
global barriers.  The RC rules rebuild exactly that happens-before relation
with vector clocks.  Threads of the clock are the resource pools (colocated
models on one pool time-share, §2.3, so a pool is one unit of concurrency)
plus a synthetic ``"ctl"`` thread for controller-context work.  Nodes are
the dispatched calls and *barrier* nodes — a maximal run of
controller-context access events between two dispatches.

Dependency seqs that are *absent* from the trace are skipped silently (and
counted): lineage legitimately crosses controllers in multi-stage pipelines
(e.g. a reward group trained under its own controller feeding PPO), and
those edges are not part of this controller's order.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.report import ERROR, WARNING, AnalysisReport
from repro.observability.spans import Span
from repro.single_controller.access_log import WRITE, AccessEvent

#: Tag suffixes resident by design between stages (§2.3): parameters,
#: gradients and optimizer state live for the whole job, so they are not
#: leaks when the run ends with them allocated.
PERSISTENT_SUFFIXES = ("/params", "/grads", "/optim")
#: Slack (simulated seconds) for interval comparisons.
TOLERANCE = 1e-6
#: Synthetic vector-clock thread for the controller's sequential context.
CTL_THREAD = "ctl"

VectorClock = Dict[str, int]
NodeKey = Tuple[str, Optional[int]]


@dataclasses.dataclass(frozen=True)
class Call:
    """One dispatched call: where it ran, what it waited on, when it ran.

    ``seq`` is ``None`` only for a hand-built trace row that names no
    dispatch; ``start``/``end`` are ``None`` when the run has no timeline
    (a replayed protocol schedule).
    """

    seq: Optional[int]
    pool: str
    name: str
    deps: Tuple[int, ...] = ()
    start: Optional[float] = None
    end: Optional[float] = None


@dataclasses.dataclass
class RunRecord:
    """Everything the trace pass reads about one finished run."""

    calls: List[Call] = dataclasses.field(default_factory=list)
    #: Finished spans only.
    spans: List[Span] = dataclasses.field(default_factory=list)
    events: List[AccessEvent] = dataclasses.field(default_factory=list)
    devices: List[Any] = dataclasses.field(default_factory=list)
    #: Global rank -> name of the pool the device serves.
    device_pools: Dict[int, str] = dataclasses.field(default_factory=dict)
    #: A fault injector was attached: straggler-inflated durations then
    #: legitimately diverge from the timeline's duration table (TA206).
    faulted: bool = False

    @classmethod
    def from_system(cls, system: Any) -> "RunRecord":
        """Load a live :class:`~repro.runtime.RlhfSystem` or controller."""
        from repro.runtime.timeline import build_timeline

        controller = getattr(system, "controller", system)
        deps = {record.seq: tuple(record.deps) for record in controller.trace}
        calls = [
            Call(e.seq, e.pool, e.name, deps[e.seq], e.start, e.end)
            for e in build_timeline(controller).events
        ]
        devices: Dict[int, Any] = {}
        device_pools: Dict[int, str] = {}
        for group in controller.groups:
            for worker in group.workers:
                device = worker.ctx.device
                devices.setdefault(device.global_rank, device)
                device_pools[device.global_rank] = group.resource_pool.name
        return cls(
            calls=calls,
            spans=[s for s in controller.tracer.spans if s.finished],
            events=list(controller.access_log.events),
            devices=list(devices.values()),
            device_pools=device_pools,
            faulted=controller.fault_injector is not None,
        )

    @classmethod
    def from_chrome_trace(cls, doc: Dict[str, Any]) -> "RunRecord":
        """Load an exported ``trace_event`` document (pid 0 + pid 1 tracks).

        Timeline events (pid 0) become the calls; dispatch spans (pid 1)
        supply their dependency seqs.
        """
        from repro.observability.export import _US, SPANS_PID, TIMELINE_PID

        track_names: Dict[Any, str] = {}
        calls: List[Call] = []
        deps: Dict[int, Tuple[int, ...]] = {}
        spans: List[Span] = []
        for event in doc.get("traceEvents", []):
            pid, tid = event.get("pid"), event.get("tid")
            args = event.get("args", {})
            if event.get("ph") == "M" and event.get("name") == "thread_name":
                track_names[(pid, tid)] = args["name"]
            if event.get("ph") != "X":
                continue
            start = event["ts"] / _US
            end = (event["ts"] + event["dur"]) / _US
            name = event.get("name", "?")
            if pid == TIMELINE_PID:
                # the exporter names each pool's track "pool <name>"
                track = track_names.get((pid, tid), f"tid{tid}")
                pool = args.get("pool", track.removeprefix("pool "))
                calls.append(Call(args.get("seq"), pool, name, (), start, end))
            elif pid == SPANS_PID and "span_id" in args:
                spans.append(
                    Span(
                        args["span_id"],
                        name,
                        event.get("cat", ""),
                        start,
                        end,
                        parent_id=args.get("parent_id"),
                    )
                )
                if event.get("cat") == "dispatch" and "seq" in args:
                    deps[args["seq"]] = tuple(args.get("deps", ()))
        calls = [dataclasses.replace(c, deps=deps.get(c.seq, ())) for c in calls]
        return cls(calls=calls, spans=spans)


def audit_run(run: Any) -> AnalysisReport:
    """Check every TA2xx and RC5xx rule once over one run.

    ``run`` is a :class:`RunRecord`, an exported Chrome trace document
    (a ``dict``), or a live system / controller.
    """
    if isinstance(run, RunRecord):
        record = run
    elif isinstance(run, dict):
        record = RunRecord.from_chrome_trace(run)
    else:
        record = RunRecord.from_system(run)
    report = AnalysisReport("trace")
    # per-pool program order, in dispatch order, of the calls with a
    # replayed interval; shared by TA201 and TA206
    timed: Dict[str, List[Call]] = {}
    for call in record.calls:
        if call.start is not None:
            timed.setdefault(call.pool, []).append(call)
    _check_overlaps(timed, report)
    _check_span_nesting(record.spans, report)
    for device in record.devices:
        _check_ledger(device, report)
    if timed and not record.faulted:
        _check_busy_accounting(timed, record, report)
    nodes = _happens_before(record, report)
    _check_same_node(record.events, nodes, report)
    _check_cross_node(record.events, nodes, report)
    return report


# -- TA2xx: intervals, spans, ledgers ------------------------------------------------


def _check_overlaps(timed: Dict[str, List[Call]], report: AnalysisReport) -> None:
    for pool in sorted(timed):
        report.note_checked("tracks")
        ordered = sorted((c.start, c.end, c.name) for c in timed[pool])
        for (s0, e0, n0), (s1, e1, n1) in zip(ordered, ordered[1:]):
            if s1 < e0 - TOLERANCE:
                report.add(
                    "TA201",
                    ERROR,
                    f"{n1!r} starts at {s1:.3f} while {n0!r} still runs "
                    f"until {e0:.3f}",
                    location=f"pool {pool}",
                    hint=(
                        "one pool executes one call at a time (colocated "
                        "models time-share, §2.3)"
                    ),
                )


def _check_span_nesting(spans: List[Span], report: AnalysisReport) -> None:
    by_id = {s.span_id: s for s in spans}
    report.note_checked("spans", len(by_id))
    for span_id in sorted(by_id):
        span = by_id[span_id]
        parent = by_id.get(span.parent_id)
        if parent is None:
            continue
        if span.start < parent.start - TOLERANCE or span.end > parent.end + TOLERANCE:
            report.add(
                "TA202",
                ERROR,
                f"span {span.name!r} [{span.start:.3f}, {span.end:.3f}] "
                f"escapes its parent {parent.name!r} "
                f"[{parent.start:.3f}, {parent.end:.3f}]",
                location=f"span {span_id}",
                hint="a child must end before its parent does",
            )


def _check_ledger(device: Any, report: AnalysisReport) -> None:
    memory = device.memory
    report.note_checked("devices")
    for tag, nbytes in memory.tags():
        if nbytes > 0 and not tag.endswith(PERSISTENT_SUFFIXES):
            report.add(
                "TA203",
                ERROR,
                f"tag {tag!r} still holds {nbytes} bytes at run end",
                location=f"device {device.global_rank}",
                hint=(
                    "free transient allocations (KV caches, transition "
                    "buffers) when their stage finishes"
                ),
            )
    last_op: Dict[str, str] = {}
    for event in memory.events:
        report.note_checked("ledger_events")
        if event.balance < 0:
            report.add(
                "TA205",
                ERROR,
                f"{event.op} on {event.tag!r} left a negative balance "
                f"({event.balance} bytes)",
                location=f"device {device.global_rank}",
                hint="the ledger can never go below zero",
            )
        if (
            event.op == "free"
            and event.nbytes == 0
            and event.tag in memory.ever_allocated
            and last_op.get(event.tag) == "free"
        ):
            report.add(
                "TA204",
                ERROR,
                f"tag {event.tag!r} freed twice with no allocation in "
                "between",
                location=f"device {device.global_rank}",
                hint="track ownership of the buffer; free it once",
            )
        last_op[event.tag] = event.op


def _check_busy_accounting(
    timed: Dict[str, List[Call]], record: RunRecord, report: AnalysisReport
) -> None:
    """Each device's ``occupy`` total must match its pool's replay (§4.1).

    The dispatch path occupies every device of a pool for the planned
    duration of each call; the timeline replays the same trace with the
    same duration table, so the two accountings agree on a clean run.
    """
    expected = {
        pool: sum(c.end - c.start for c in calls) for pool, calls in timed.items()
    }
    for device in record.devices:
        pool = record.device_pools.get(device.global_rank)
        if pool not in expected:
            continue
        report.note_checked("busy_accounted_devices")
        delta = abs(device.busy_time - expected[pool])
        if delta > max(TOLERANCE, 1e-9 * expected[pool]):
            report.add(
                "TA206",
                WARNING,
                f"device busy time {device.busy_time:.3f}s disagrees "
                f"with the timeline's {expected[pool]:.3f}s for pool "
                f"{pool!r} (delta {delta:.3f}s)",
                location=f"device {device.global_rank}",
                hint=(
                    "occupy() charges and the replay's duration table "
                    "must come from the same model"
                ),
            )


# -- RC5xx: vector clocks over the happens-before graph ------------------------------


def _merge(into: VectorClock, other: VectorClock) -> None:
    for thread, tick in other.items():
        if tick > into.get(thread, 0):
            into[thread] = tick


def _leq(a: VectorClock, b: VectorClock) -> bool:
    return all(tick <= b.get(thread, 0) for thread, tick in a.items())


def _concurrent(a: VectorClock, b: VectorClock) -> bool:
    return not _leq(a, b) and not _leq(b, a)


def _node_key(event: AccessEvent) -> NodeKey:
    if event.seq is None:
        return ("barrier", event.after_seq)
    return ("call", event.seq)


def _happens_before(
    record: RunRecord, report: AnalysisReport
) -> Dict[NodeKey, Tuple[VectorClock, str]]:
    """Vector clock and label of every dispatch and barrier node."""
    barrier_positions = sorted(
        {e.after_seq for e in record.events if e.seq is None}
    )
    # processing order: a barrier at position k ran after call k-1
    # returned and before call k dispatched
    schedule: List[Tuple[int, int, Optional[Call]]] = [
        (pos, 0, None) for pos in barrier_positions
    ]
    schedule += [(c.seq, 1, c) for c in record.calls if c.seq is not None]
    schedule.sort(key=lambda item: (item[0], item[1]))

    nodes: Dict[NodeKey, Tuple[VectorClock, str]] = {}
    pool_last: Dict[str, VectorClock] = {}
    barrier_clock: VectorClock = {}
    for pos, _, call in schedule:
        if call is None:  # barrier: joins every pool, ticks the ctl thread
            clock: VectorClock = dict(barrier_clock)
            for vc in pool_last.values():
                _merge(clock, vc)
            clock[CTL_THREAD] = clock.get(CTL_THREAD, 0) + 1
            barrier_clock = clock
            nodes[("barrier", pos)] = (clock, f"controller context @{pos}")
            report.note_checked("barriers")
            continue
        clock = dict(pool_last.get(call.pool, {}))
        _merge(clock, barrier_clock)
        for dep in call.deps:
            dep_node = nodes.get(("call", dep))
            if dep_node is None:
                # absent seq: lineage from another controller, or a
                # future edge — not an ordering edge of this trace
                report.note_checked("skipped_deps")
                continue
            report.note_checked("resolved_deps")
            _merge(clock, dep_node[0])
        clock[call.pool] = clock.get(call.pool, 0) + 1
        pool_last[call.pool] = clock
        nodes[("call", call.seq)] = (clock, f"{call.name} (seq {call.seq})")
        report.note_checked("calls")
    return nodes


def _check_same_node(
    events: List[AccessEvent],
    nodes: Dict[NodeKey, Tuple[VectorClock, str]],
    report: AnalysisReport,
) -> None:
    """RC502: unordered multi-rank writes inside one dispatch.

    Barrier nodes are exempt — controller context is sequential by
    definition; inside a dispatch, per-rank work is concurrent and only
    a protocol's deterministic collect order serialises the merge.
    """
    grouped: Dict[Tuple[NodeKey, str], List[AccessEvent]] = {}
    for event in events:
        if event.seq is not None:
            grouped.setdefault((_node_key(event), event.resource), []).append(
                event
            )
    for (key, resource), group in sorted(grouped.items()):
        writers = {e.rank for e in group if e.kind == WRITE}
        unordered = [e for e in group if e.kind == WRITE and not e.ordered]
        if len(writers) > 1 and unordered:
            node = nodes.get(key)
            label = node[1] if node is not None else f"seq {key[1]}"
            report.add(
                "RC502",
                ERROR,
                f"{len(writers)} ranks write {resource!r} inside one "
                f"dispatch ({label}) with no deterministic merge order — "
                "merge_outputs would fold them in arrival order",
                location=resource,
                hint="collect in a fixed rank order (set the protocol's "
                "deterministic_collect) or reduce on the workers first",
            )
        report.note_checked("merge_checks")


def _check_cross_node(
    events: List[AccessEvent],
    nodes: Dict[NodeKey, Tuple[VectorClock, str]],
    report: AnalysisReport,
) -> None:
    """RC501 (conflicting accesses on concurrent nodes) and RC503."""
    by_resource: Dict[str, Dict[NodeKey, Dict[str, bool]]] = {}
    dangling = 0
    for event in events:
        key = _node_key(event)
        if key not in nodes:
            dangling += 1
            continue
        summary = by_resource.setdefault(event.resource, {}).setdefault(
            key, {"write": False, "read": False}
        )
        summary["write" if event.kind == WRITE else "read"] = True
    if dangling:
        report.add(
            "RC503",
            WARNING,
            f"{dangling} access event(s) reference dispatches the trace "
            "never recorded; they were skipped by the race analysis",
            location="access_log",
            hint="record_access must run inside the dispatch it claims "
            "(controller.current_seq) — a stale seq hides races",
        )
    for resource, per_node in sorted(by_resource.items()):
        report.note_checked("resources")
        keys = sorted(per_node)
        racy_pairs: List[Tuple[str, str]] = []
        for i, a in enumerate(keys):
            for b in keys[i + 1 :]:
                if not (per_node[a]["write"] or per_node[b]["write"]):
                    continue
                report.note_checked("vc_comparisons")
                if _concurrent(nodes[a][0], nodes[b][0]):
                    racy_pairs.append((nodes[a][1], nodes[b][1]))
        if racy_pairs:
            first = racy_pairs[0]
            report.add(
                "RC501",
                ERROR,
                f"{len(racy_pairs)} conflicting access pair(s) on "
                f"{resource!r} with no happens-before edge; e.g. "
                f"{first[0]} vs {first[1]}",
                location=resource,
                hint="thread the consumer through the producer's future "
                "(lineage dep) or a controller barrier so the order is "
                "explicit",
            )
