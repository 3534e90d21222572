"""Structured hang diagnostics.

When the watchdog trips, "the simulation hung" is useless; what an operator
(or the fuzz shrinker) needs is *who* is stuck on *what*.
:func:`diagnose_machine` walks a wedged machine and snapshots everything a
protocol debugging session would ask for: blocked workload processes,
unresolved reply rendezvous, outstanding MSHRs, write-buffer contents,
lock/semaphore/barrier queues at every home, in-flight and held messages
per network channel, the fault plan's drop log, and the retry counters.

The ``blame`` set is the headline: a non-empty set of human-readable
culprit strings (``"node 3 waiting on ('c:grant', 12)"``) — the acceptance
gate for the retry-disabled deadlock proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Set

if TYPE_CHECKING:  # pragma: no cover
    from ..system.machine import Machine

__all__ = ["HangDiagnosis", "diagnose_machine"]


@dataclass
class HangDiagnosis:
    """Snapshot of a machine that stopped making progress."""

    reason: str
    time: float
    protocol: str = ""
    #: Active adversarial scenario name (``Machine.scenario``), or ``""``
    #: outside a scenario run — makes shrunk repros attributable.
    scenario: str = ""
    alive_processes: List[str] = field(default_factory=list)
    #: node -> pending reply keys (the unresolved rendezvous).
    pending_replies: Dict[int, List[str]] = field(default_factory=dict)
    #: node -> outstanding miss-status registers (block ids).
    mshrs: Dict[int, List[int]] = field(default_factory=dict)
    #: node -> unretired write-buffer entries ``(entry_id, word, value)``.
    write_buffers: Dict[int, List[tuple]] = field(default_factory=dict)
    #: block -> lock queue ``[node, mode, is_holder]`` where non-empty.
    lock_queues: Dict[int, list] = field(default_factory=dict)
    #: block -> semaphore waiter nodes where non-empty.
    sem_waiters: Dict[int, list] = field(default_factory=dict)
    #: block -> barrier waiter nodes where non-empty.
    barrier_waiting: Dict[int, list] = field(default_factory=dict)
    #: block -> home node of blocks whose directory entry is busy.
    busy_blocks: Dict[int, int] = field(default_factory=dict)
    #: (src, dst) -> messages sent but not yet delivered.
    in_flight: Dict[tuple, int] = field(default_factory=dict)
    #: (src, dst) -> messages held by the FIFO resequencer.
    held: Dict[tuple, int] = field(default_factory=dict)
    dropped: List[str] = field(default_factory=list)
    retries: int = 0
    timeouts: int = 0
    #: Lazily-canceled calendar entries still parked on the kernel's heap.
    #: Distinguishes a genuinely quiet calendar from one stuffed with dead
    #: retry timers — a high count alongside ``pending_live == 0`` is the
    #: signature of a retry-exhausted wedge.
    canceled_pending: int = 0
    #: Scheduled-and-not-canceled calendar entries at diagnosis time.
    pending_live: int = 0
    blame: Set[str] = field(default_factory=set)
    #: Last trace events touching the blamed nodes/blocks (whole recent
    #: tail if nothing matches); empty when the trace bus was disabled.
    trace_tail: List[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        """JSON-serializable form (CI uploads this as an artifact)."""
        return {
            "reason": self.reason,
            "time": self.time,
            "protocol": self.protocol,
            "scenario": self.scenario,
            "alive_processes": list(self.alive_processes),
            "pending_replies": {str(k): v for k, v in self.pending_replies.items()},
            "mshrs": {str(k): v for k, v in self.mshrs.items()},
            "write_buffers": {str(k): [list(e) for e in v] for k, v in self.write_buffers.items()},
            "lock_queues": {str(k): v for k, v in self.lock_queues.items()},
            "sem_waiters": {str(k): v for k, v in self.sem_waiters.items()},
            "barrier_waiting": {str(k): v for k, v in self.barrier_waiting.items()},
            "busy_blocks": {str(k): v for k, v in self.busy_blocks.items()},
            "in_flight": {f"{s}->{d}": n for (s, d), n in self.in_flight.items()},
            "held": {f"{s}->{d}": n for (s, d), n in self.held.items()},
            "dropped": list(self.dropped),
            "retries": self.retries,
            "timeouts": self.timeouts,
            "canceled_pending": self.canceled_pending,
            "pending_live": self.pending_live,
            "blame": sorted(self.blame),
            "trace_tail": [dict(ev) for ev in self.trace_tail],
        }

    def format(self) -> str:
        """Multi-line human-readable dump."""
        lines = [
            f"HangDiagnosis: {self.reason} at t={self.time}"
            + (f" (protocol={self.protocol})" if self.protocol else "")
            + (f" (scenario={self.scenario})" if self.scenario else ""),
            f"  retries={self.retries} timeouts={self.timeouts}",
            f"  calendar: {self.pending_live} live, "
            f"{self.canceled_pending} canceled-pending",
        ]
        if self.blame:
            lines.append("  blame:")
            lines.extend(f"    - {b}" for b in sorted(self.blame))
        if self.alive_processes:
            lines.append(f"  blocked processes: {', '.join(self.alive_processes)}")
        for node, keys in sorted(self.pending_replies.items()):
            lines.append(f"  node {node} pending replies: {keys}")
        for node, blocks in sorted(self.mshrs.items()):
            lines.append(f"  node {node} outstanding MSHRs: blocks {blocks}")
        for node, entries in sorted(self.write_buffers.items()):
            lines.append(f"  node {node} write buffer: {entries}")
        for block, q in sorted(self.lock_queues.items()):
            lines.append(f"  block {block} lock queue: {q}")
        for block, w in sorted(self.sem_waiters.items()):
            lines.append(f"  block {block} semaphore waiters: {w}")
        for block, w in sorted(self.barrier_waiting.items()):
            lines.append(f"  block {block} barrier waiting: {w}")
        for block, home in sorted(self.busy_blocks.items()):
            lines.append(f"  block {block} busy at home {home}")
        for (s, d), n in sorted(self.in_flight.items()):
            lines.append(f"  channel {s}->{d}: {n} in flight")
        for (s, d), n in sorted(self.held.items()):
            lines.append(f"  channel {s}->{d}: {n} held for FIFO order")
        if self.dropped:
            lines.append("  dropped messages (tail):")
            lines.extend(f"    {d}" for d in self.dropped[-16:])
        if self.trace_tail:
            lines.append("  trace tail:")
            for ev in self.trace_tail[-16:]:
                lines.append(
                    f"    t={ev.get('ts')} [{ev.get('cat')}] {ev.get('name')}"
                    f" tid={ev.get('tid')} args={ev.get('args', {})}"
                )
        return "\n".join(lines)


def diagnose_machine(machine: "Machine", reason: str) -> HangDiagnosis:
    """Walk ``machine`` and build the structured hang snapshot."""
    d = HangDiagnosis(
        reason=reason,
        time=machine.sim.now,
        protocol=machine.protocol,
        scenario=machine.scenario or "",
    )
    d.canceled_pending = machine.sim.canceled_pending
    d.pending_live = machine.sim.pending_live()
    for proc in machine._procs:
        if proc.is_alive:
            d.alive_processes.append(proc.name or repr(proc))
    for node in machine.nodes:
        nid = node.node_id
        if node._pending_replies:
            keys = [repr(k) for k in node._pending_replies]
            d.pending_replies[nid] = keys
            for k in keys:
                d.blame.add(f"node {nid} waiting on {k}")
        mshr = getattr(node.data_ctl, "_mshr", None)
        if mshr:
            d.mshrs[nid] = sorted(mshr)
            for block in mshr:
                d.blame.add(f"node {nid} MSHR outstanding for block {block}")
        wb = node.write_buffer
        if wb is not None:
            entries = [
                (eid, word, value) for eid, (word, value) in sorted(wb._pending.items())
            ]
            if entries:
                d.write_buffers[nid] = entries
                d.blame.add(f"node {nid} write buffer has {len(entries)} unretired entries")
        for block in node.directory.known_blocks():
            entry = node.directory.entry(block)
            if entry.lock_queue:
                d.lock_queues[block] = [list(item) for item in entry.lock_queue]
            if entry.sem_waiters:
                d.sem_waiters[block] = list(entry.sem_waiters)
            if entry.barrier_waiting:
                d.barrier_waiting[block] = list(entry.barrier_waiting)
            if entry.busy:
                d.busy_blocks[block] = nid
                d.blame.add(f"block {block} stuck busy at home {nid}")
    net = machine.net
    d.in_flight, d.held = net.channel_backlog()
    plan = getattr(net, "fault_plan", None)
    if plan is not None:
        d.dropped = list(plan.drop_log)
        for line in d.dropped[-8:]:
            d.blame.add(f"lost message: {line}")
    counters = {}
    for node in machine.nodes:
        for k, v in node.stats.counters.as_dict().items():
            counters[k] = counters.get(k, 0) + v
    d.retries = counters.get("resilience.retries", 0)
    d.timeouts = counters.get("resilience.timeouts", 0)
    obs = machine.obs
    if obs is not None:
        tail = obs.tail_events()
        blamed_nodes = (
            set(d.pending_replies) | set(d.mshrs) | set(d.write_buffers)
        )
        blamed_blocks = (
            set(d.busy_blocks) | set(d.lock_queues)
            | set(d.sem_waiters) | set(d.barrier_waiting)
        )

        def _touches(ev: dict) -> bool:
            if ev.get("tid") in blamed_nodes:
                return True
            args = ev.get("args") or {}
            return args.get("block") in blamed_blocks

        picked = [ev for ev in tail if _touches(ev)]
        d.trace_tail = picked or tail
    return d
