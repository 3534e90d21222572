"""Differential pin: all calendar disciplines are cycle-identical.

The kernel's alternate scheduling disciplines — the zero-delay-lane fast
path (``Simulator(calendar="fast")``) and the slotted calendar queue
(``Simulator(calendar="slotted")``) — reorder *nothing*: they only change
which container holds a due event.  These tests enforce that claim the
strongest way available — replay fuzzer-generated programs under every
discipline and require bit-identical ``RunMetrics.to_json()`` and
identical trace event streams, including runs with latency jitter and
fault injection (the cancel-heavy regime that exercises lazy cancellation
and calendar compaction).

Any divergence here means a discipline broke global (time, seq) FIFO
order and every performance number in BENCH_PR4.json / BENCH_PR9.json is
measuring a *different simulation*, not a faster one.
"""

import itertools
import json

import numpy as np
import pytest

import repro.network.message as msgmod
from repro.faults import FaultSpec
from repro.sim.core import CALENDARS
from repro.verify.fuzz import gen_program, run_program

SEEDS = [0, 1, 2, 3]
PROTOCOLS = ["wbi", "primitives", "writeupdate"]
# The heap discipline is the referee; every other discipline is diffed
# against it below.
ALTERNATES = [c for c in CALENDARS if c != "heap"]


def _replay(seed, protocol, calendar, jitter=0.0, faults=None, trace_path=None):
    """One deterministic fuzzer replay; returns (oracle_result, metrics)."""
    # Message ids come from a module-level counter; reset it so the
    # disciplines label messages identically and traces can be diffed.
    msgmod._msg_ids = itertools.count()
    program = gen_program(np.random.default_rng(seed))
    captured = {}
    result = run_program(
        program,
        protocol=protocol,
        model="bc",
        seed=seed,
        jitter=jitter,
        faults=faults,
        calendar=calendar,
        trace_path=str(trace_path) if trace_path is not None else None,
        on_machine=lambda m: captured.update(metrics=m.metrics().to_json()),
    )
    return result, captured["metrics"]


@pytest.mark.parametrize("calendar", ALTERNATES)
@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("seed", SEEDS)
def test_metrics_bit_identical(seed, protocol, calendar):
    res_heap, m_heap = _replay(seed, protocol, calendar="heap")
    res_alt, m_alt = _replay(seed, protocol, calendar=calendar)
    assert res_heap is None and res_alt is None
    assert json.dumps(m_heap, sort_keys=True) == json.dumps(m_alt, sort_keys=True)


@pytest.mark.parametrize("calendar", ALTERNATES)
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_metrics_identical_under_jitter(protocol, calendar):
    """Jitter perturbs positive delays only; all disciplines see the same
    perturbed delays in the same order."""
    res_heap, m_heap = _replay(7, protocol, calendar="heap", jitter=0.3)
    res_alt, m_alt = _replay(7, protocol, calendar=calendar, jitter=0.3)
    assert res_heap == res_alt
    assert json.dumps(m_heap, sort_keys=True) == json.dumps(m_alt, sort_keys=True)


@pytest.mark.parametrize("calendar", ALTERNATES)
@pytest.mark.parametrize("seed", SEEDS[:2])
def test_metrics_identical_under_faults(seed, calendar):
    """Fault injection is the cancel-heavy regime: retry timers are armed and
    canceled in bulk, driving lazy cancellation and compaction on the fast
    path and ``drop_canceled`` sweeps on the slotted calendar.  Outcome and
    metrics must still match the heap discipline exactly."""
    spec = FaultSpec(drop_prob=0.02, seed=seed)
    res_heap, m_heap = _replay(seed, "primitives", calendar="heap", faults=spec)
    res_alt, m_alt = _replay(seed, "primitives", calendar=calendar, faults=spec)
    assert res_heap == res_alt
    assert json.dumps(m_heap, sort_keys=True) == json.dumps(m_alt, sort_keys=True)


@pytest.mark.parametrize("calendar", ALTERNATES)
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_trace_streams_identical(protocol, calendar, tmp_path):
    """Stronger than metrics: the full trace event stream (every message,
    state transition and kernel instant, with timestamps and sequence) must
    be byte-identical between disciplines."""
    heap_trace = tmp_path / "heap.jsonl"
    alt_trace = tmp_path / f"{calendar}.jsonl"
    res_heap, m_heap = _replay(11, protocol, calendar="heap", trace_path=heap_trace)
    res_alt, m_alt = _replay(11, protocol, calendar=calendar, trace_path=alt_trace)
    assert res_heap == res_alt
    assert json.dumps(m_heap, sort_keys=True) == json.dumps(m_alt, sort_keys=True)
    heap_lines = heap_trace.read_text().splitlines()
    alt_lines = alt_trace.read_text().splitlines()
    assert len(heap_lines) == len(alt_lines)
    for i, (a, b) in enumerate(zip(heap_lines, alt_lines)):
        assert a == b, f"trace diverges at event {i}:\n  heap: {a}\n  {calendar}: {b}"


@pytest.mark.parametrize("calendar", ALTERNATES)
def test_trace_streams_identical_with_faults(calendar, tmp_path):
    heap_trace = tmp_path / "heap.jsonl"
    alt_trace = tmp_path / f"{calendar}.jsonl"
    spec = FaultSpec(drop_prob=0.02, seed=5)
    res_heap, _ = _replay(5, "primitives", calendar="heap", faults=spec,
                          trace_path=heap_trace)
    res_alt, _ = _replay(5, "primitives", calendar=calendar, faults=spec,
                         trace_path=alt_trace)
    assert res_heap == res_alt
    assert heap_trace.read_text() == alt_trace.read_text()


# --------------------------------------------------------------------------
# Mid-run changes to the scheduling gates
# --------------------------------------------------------------------------
# On the fast calendar a timeout with no jitter hook and no trace bus to
# apply pushes itself onto the calendar instead of going through
# ``Simulator._schedule``.  Installing either hook mid-run must route every
# later timeout back through ``_schedule``, and every discipline must still
# agree on the resulting order.


@pytest.mark.parametrize("calendar", CALENDARS)
def test_set_jitter_mid_run_applies_to_later_timeouts(calendar):
    from repro.sim.core import Simulator

    sim = Simulator(calendar=calendar)
    seen = []

    def proc():
        yield sim.timeout(5)
        seen.append(sim.now)
        sim.set_jitter(lambda d: d * 3)
        yield sim.timeout(5)
        seen.append(sim.now)
        sim.set_jitter(None)
        yield sim.timeout(5)
        seen.append(sim.now)

    sim.process(proc())
    assert sim._direct == (calendar == "fast")
    sim.run()
    assert seen == [5, 20, 25]
    assert sim._direct == (calendar == "fast")


@pytest.mark.parametrize("calendar", CALENDARS)
def test_set_obs_mid_run_stamps_later_timeouts(calendar):
    from repro.obs import ObsParams
    from repro.obs.bus import TraceBus
    from repro.sim.core import Simulator

    sim = Simulator(calendar=calendar)
    stamps = []

    def proc():
        yield sim.timeout(4)
        ev = sim.timeout(3)
        stamps.append(ev.sched_at)
        yield ev
        sim.set_obs(TraceBus(sim, ObsParams()))
        assert not sim._direct
        ev = sim.timeout(3)
        stamps.append(ev.sched_at)
        yield ev
        sim.set_obs(None)
        ev = sim.timeout(3)
        stamps.append(ev.sched_at)
        yield ev

    sim.process(proc())
    sim.run()
    assert stamps == [-1.0, 7, -1.0]
    assert sim.now == 13


def _jitter_toggle_log(calendar):
    """A kernel-level run whose jitter hook is installed and removed
    mid-run, with zero-delay, positive-delay and succeed() wake-ups mixed."""
    from repro.sim.core import Simulator

    sim = Simulator(calendar=calendar)
    rng = np.random.default_rng(3)
    log = []
    gate = sim.event("gate")

    def worker(i):
        for k in range(12):
            yield sim.timeout(int(rng.integers(0, 4)))
            log.append((sim.now, i, k))
            if i == 0 and k == 5 and not gate.triggered:
                gate.succeed(k)

    def toggler():
        yield sim.timeout(6)
        sim.set_jitter(lambda d: d + 0.5)
        yield gate
        log.append((sim.now, "gate"))
        yield sim.timeout(7)
        sim.set_jitter(None)
        log.append((sim.now, "off"))

    for i in range(4):
        sim.process(worker(i))
    sim.process(toggler())
    sim.run()
    return log, sim.events_processed


@pytest.mark.parametrize("calendar", ALTERNATES)
def test_jitter_toggled_mid_run_matches_heap(calendar):
    assert _jitter_toggle_log(calendar) == _jitter_toggle_log("heap")


@pytest.mark.parametrize("calendar", ALTERNATES)
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_machine_jitter_toggled_mid_run_matches_heap(protocol, calendar):
    """The same at machine scale: a syncmodel run whose fuzz jitter is
    switched on at cycle 150 and off again at cycle 600."""
    from repro.system.config import MachineConfig
    from repro.system.machine import Machine
    from repro.verify.litmus import make_jitter
    from repro.workloads.syncmodel import SyncModelParams, SyncModelWorkload

    scheme = {"wbi": "tts", "primitives": "cbl", "writeupdate": "ts"}[protocol]

    def run(cal):
        msgmod._msg_ids = itertools.count()
        machine = Machine(MachineConfig(n_nodes=4, cache_blocks=64, seed=2),
                          protocol=protocol, calendar=cal)

        def toggler():
            yield machine.sim.timeout(150)
            machine.sim.set_jitter(
                make_jitter(machine.rng.stream("toggle.jitter"), 2.5, prob=0.5))
            yield machine.sim.timeout(450)
            machine.sim.set_jitter(None)

        machine.spawn(toggler(), name="toggler")
        params = SyncModelParams(tasks_per_node=3, grain_size=40, shared_ratio=0.3)
        SyncModelWorkload(machine, params, lock_scheme=scheme).run()
        return json.dumps(machine.metrics().to_json(), sort_keys=True)

    assert run(calendar) == run("heap")


@pytest.mark.parametrize("calendar", CALENDARS)
def test_interrupt_detaches_cached_resume_callback(calendar):
    """A process parks one cached bound callback on what it awaits;
    interrupting it must take exactly that callback off the event, so the
    event firing later does not resume the process a second time."""
    from repro.sim.core import Interrupt, Simulator

    sim = Simulator(calendar=calendar)
    ev = sim.event("never-yet")
    resumed = []

    def sleeper():
        try:
            yield ev
            resumed.append("event")
        except Interrupt as exc:
            resumed.append(exc.cause)
        yield sim.timeout(10)
        resumed.append("done")

    proc = sim.process(sleeper())

    def interrupter():
        yield sim.timeout(2)
        assert ev.callbacks == [proc._resume_cb]
        proc.interrupt("stop")
        assert ev.callbacks == []
        yield sim.timeout(1)
        ev.succeed()

    sim.process(interrupter())
    sim.run()
    assert resumed == ["stop", "done"]
    assert sim.now == 12
