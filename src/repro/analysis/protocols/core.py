"""Explicit state-machine models of the shipped concurrent protocols.

The RC5xx race detector audits the one schedule that happened to run; the
MC6xx model checker (:mod:`repro.analysis.modelcheck`) explores *every*
small-scope interleaving of these models instead.  A model is deliberately
tiny — just the synchronization skeleton of the real component — but it is
kept honest two ways:

* conformance tests replay real-implementation traces through the model
  (every op the real code performs must be an enabled model action), and
* counterexample schedules replay *out* of the model into the existing
  post-run trace pass (:func:`replay_schedule` emits dispatched calls,
  access events, and a synthetic ledger device for
  :func:`~repro.analysis.trace.audit_run`).

Each :class:`Action` therefore carries two kinds of footprint:

* ``reads`` / ``writes`` — *data* resources (buffers, slots, device state).
  These become access-log events on replay; a mutant that drops a guard
  turns into a vector-clock race on exactly these resources.
* ``ctrl_reads`` / ``ctrl_writes`` — *control* state the action's guard or
  effect touches (pointers, counters, statuses).  Control state is what the
  real protocol reads under its own synchronization (an atomic pointer
  flip, the controller's sequential context), so it is excluded from the
  replayed access log — but it MUST be declared, because the checker's
  partial-order reduction may only commute actions whose full footprints
  are disjoint.  Undeclared control state would let the reduction prune a
  schedule that actually behaves differently.

``syncs`` / ``releases`` are named tokens modelling the happens-before
edges the real protocol leaves in the trace (future/lineage deps, the
publisher hand-off, device free/claim).  On replay, an action's record
depends on the record that last released each token it syncs on.

``allocs`` / ``frees`` charge a synthetic memory ledger whose per-tag
capacities are the protocol's *contract* (at most ``W + 1`` in-flight
rollouts, one batch per buffer slot, one gang per device).  A mutant that
silently exceeds the contract — or frees what was never allocated — shows
up as a ``TA205`` negative balance when the counterexample is replayed
through :func:`~repro.analysis.trace.audit_run`.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Tuple


class Action(NamedTuple):
    """One enabled transition of a protocol model."""

    name: str
    thread: str
    reads: Tuple[str, ...] = ()
    writes: Tuple[str, ...] = ()
    ctrl_reads: Tuple[str, ...] = ()
    ctrl_writes: Tuple[str, ...] = ()
    syncs: Tuple[str, ...] = ()
    releases: Tuple[str, ...] = ()
    allocs: Tuple[Tuple[str, int], ...] = ()
    frees: Tuple[Tuple[str, int], ...] = ()


def independent(a: Action, b: Action) -> bool:
    """Conservative Mazurkiewicz independence: may the checker commute them?

    Same-thread actions are program-ordered, never independent.  Otherwise
    the *full* footprints (data + control + sync tokens + ledger tags) must
    be disjoint — any overlap could change the other action's guard,
    effect, or ordering, so the pair must be explored in both orders.
    """
    if a.thread == b.thread:
        return False
    a_writes = set(a.writes) | set(a.ctrl_writes)
    b_writes = set(b.writes) | set(b.ctrl_writes)
    a_touch = a_writes | set(a.reads) | set(a.ctrl_reads)
    b_touch = b_writes | set(b.reads) | set(b.ctrl_reads)
    if (a_writes & b_touch) or (b_writes & a_touch):
        return False
    if set(a.releases) & set(b.syncs) or set(b.releases) & set(a.syncs):
        return False
    a_tags = {tag for tag, _ in a.allocs} | {tag for tag, _ in a.frees}
    b_tags = {tag for tag, _ in b.allocs} | {tag for tag, _ in b.frees}
    if a_tags & b_tags:
        return False
    return True


class ProtocolModel:
    """Base class: a finite, deterministic-per-action state machine.

    States are hashable values (nested tuples / NamedTuples).  ``apply``
    is pure — it returns a new state and never mutates.  A state records
    protocol-invariant violations in its ``viol`` field (a tuple of
    ``(rule, message)`` pairs); the checker treats a violating state as a
    frontier and reports each rule once with its schedule.
    """

    #: Short stable name; counterexample locations are ``model:<name>``.
    name = "protocol"

    def tag_capacity(self, tag: str) -> Optional[int]:
        """Contract capacity of a replay-ledger tag (None = unbounded)."""
        return None

    def initial_state(self) -> Any:
        raise NotImplementedError

    def enabled(self, state: Any) -> List[Action]:
        """All actions the protocol allows from ``state``, in a fixed order."""
        raise NotImplementedError

    def apply(self, state: Any, action: Action) -> Any:
        raise NotImplementedError

    def is_terminal(self, state: Any) -> bool:
        """True when the protocol has run to a legitimate quiescent end."""
        raise NotImplementedError

    def state_violations(self, state: Any) -> Tuple[Tuple[str, str], ...]:
        return tuple(getattr(state, "viol", ()))

    def final_violations(self, state: Any) -> Tuple[Tuple[str, str], ...]:
        """Violations only a finished run exhibits (lost work, leaks)."""
        return ()

    # -- shared helpers ----------------------------------------------------------------

    def run_schedule(self, schedule: List[str]) -> Any:
        """Re-execute a schedule of action names; returns the final state.

        Raises ``ValueError`` if any step names an action the model does
        not enable at that point — the conformance guarantee that a
        counterexample (or a real-implementation trace mapped to action
        names) is an actual behaviour of the model.
        """
        state = self.initial_state()
        for i, name in enumerate(schedule):
            action = self.action_named(state, name)
            if action is None:
                have = [a.name for a in self.enabled(state)]
                raise ValueError(
                    f"{self.name}: step {i} action {name!r} not enabled "
                    f"(enabled: {have})"
                )
            state = self.apply(state, action)
        return state

    def action_named(self, state: Any, name: str) -> Optional[Action]:
        for action in self.enabled(state):
            if action.name == name:
                return action
        return None


class _LedgerEvent(NamedTuple):
    op: str
    tag: str
    nbytes: int
    balance: int


class _ReplayMemory:
    """Duck-typed device memory for the trace pass's ledger rules.

    ``balance`` after each event is the most negative of (remaining
    per-tag contract headroom, the tag's outstanding allocation) — so
    both over-subscription (allocating past the protocol's contract) and
    a free-without-alloc surface as ``TA205``.
    """

    def __init__(self, cap_fn) -> None:
        self.cap_fn = cap_fn
        self.events: List[_LedgerEvent] = []
        self.ever_allocated: set = set()
        self._tags: Dict[str, int] = {}

    def _balance(self, tag: str) -> int:
        outstanding = self._tags.get(tag, 0)
        cap = self.cap_fn(tag)
        if cap is None:
            return outstanding
        return min(outstanding, cap - outstanding)

    def alloc(self, tag: str, n: int) -> None:
        self._tags[tag] = self._tags.get(tag, 0) + n
        self.ever_allocated.add(tag)
        self.events.append(_LedgerEvent("alloc", tag, n, self._balance(tag)))

    def free(self, tag: str, n: int) -> None:
        self._tags[tag] = self._tags.get(tag, 0) - n
        self.events.append(_LedgerEvent("free", tag, n, self._balance(tag)))

    def tags(self) -> List[Tuple[str, int]]:
        return sorted(self._tags.items())


class ReplayDevice:
    """Synthetic device carrying the replayed protocol ledger."""

    def __init__(self, model: "ProtocolModel") -> None:
        self.global_rank = 0
        self.model_name = model.name
        self.busy_time = 0.0
        self.memory = _ReplayMemory(model.tag_capacity)


def replay_schedule(model: ProtocolModel, schedule: List[str]):
    """Re-execute ``schedule`` and emit validator-shaped artifacts.

    Returns ``(calls, events, device)``:

    * ``calls`` — one :class:`~repro.analysis.trace.Call` per action;
      ``pool`` is the action's thread, ``deps`` are the calls that last
      released each token the action syncs on (the protocol's
      happens-before edges).
    * ``events`` — one :class:`AccessEvent` per declared *data* access.
    * ``device`` — a :class:`ReplayDevice` whose ledger was charged by the
      actions' ``allocs`` / ``frees`` against the model's contract.

    Feeding these to :func:`~repro.analysis.trace.audit_run`
    cross-validates a counterexample with the shipped post-run analysis:
    an intact protocol's schedules replay clean, a dropped guard shows up
    as RC501 / TA205.
    """
    from repro.analysis.trace import Call
    from repro.single_controller.access_log import READ, WRITE, AccessEvent

    state = model.initial_state()
    calls: List[Call] = []
    events: List[Any] = []
    device = ReplayDevice(model)
    released_at: Dict[str, int] = {}
    for seq, name in enumerate(schedule):
        action = model.action_named(state, name)
        if action is None:
            have = [a.name for a in model.enabled(state)]
            raise ValueError(
                f"{model.name}: replay step {seq} action {name!r} not "
                f"enabled (enabled: {have})"
            )
        deps = tuple(
            sorted(
                {
                    released_at[token]
                    for token in action.syncs
                    if token in released_at
                }
            )
        )
        calls.append(
            Call(seq, action.thread, f"{model.name}.{action.name}", deps)
        )
        for resource in action.reads:
            events.append(
                AccessEvent(
                    kind=READ,
                    resource=f"{model.name}/{resource}",
                    rank=0,
                    seq=seq,
                    after_seq=seq,
                    note=action.name,
                )
            )
        for resource in action.writes:
            events.append(
                AccessEvent(
                    kind=WRITE,
                    resource=f"{model.name}/{resource}",
                    rank=0,
                    seq=seq,
                    after_seq=seq,
                    note=action.name,
                )
            )
        for tag, n in action.allocs:
            device.memory.alloc(tag, n)
        for tag, n in action.frees:
            device.memory.free(tag, n)
        for token in action.releases:
            released_at[token] = seq
        state = model.apply(state, action)
    return calls, events, device


__all__ = [
    "Action",
    "ProtocolModel",
    "ReplayDevice",
    "independent",
    "replay_schedule",
]
