"""Point functions the benchmark runs, one simulated run (or row) each.

Every function here is top level and JSON-in/JSON-out, so the campaign's
sweep workers can resolve it by dotted path (``perfbench.points:NAME``).
They call the simulator only through its public API and take their seed
as a parameter, so every result is a pure function of the parameters.
Where a report point function exists (``repro.experiments.fig_point``)
the benchmark's twin builds the same machine and workload but also
returns the message and flit counts that ``msgs_per_s`` and the digest
pins need.
"""

from __future__ import annotations

import importlib
import multiprocessing
import os
import resource
import statistics
import time
import traceback
from typing import Any, Callable, Dict, List

from . import layers
from .calibrate import NEAREST, Speed

#: Calibration samples taken in a pool worker between its sweep points, so
#: a point's host time scales by the speed of the core it ran on.
_SPEED = Speed()


def resolve(fn_path: str) -> Callable[..., Any]:
    """The function named by ``"package.module:function"``."""
    mod_name, _, fn_name = fn_path.partition(":")
    return getattr(importlib.import_module(mod_name), fn_name)


def describe(exc: BaseException) -> str:
    """``Type: message`` plus the innermost frame, for failure reports."""
    tb = traceback.extract_tb(exc.__traceback__)
    where = f" [{os.path.basename(tb[-1].filename)}:{tb[-1].lineno}]" if tb else ""
    return f"{type(exc).__name__}: {exc}{where}"


def timed(fn: str, params: Dict[str, Any]) -> Dict[str, Any]:
    """Run ``fn(**params)`` and report its host time next to its result.

    The campaign dispatches every sweep point through this wrapper, so the
    host time is measured where the point runs, next to the calibration
    samples taken there when that is a pool worker (in-process, the
    parent's samples apply), and a raising point comes back as an
    ``error`` instead of aborting the sweep.  The process id and peak RSS
    let the parent sum worker memory.
    """
    in_worker = multiprocessing.parent_process() is not None
    if in_worker:
        _SPEED.tick()
    t0 = time.perf_counter()
    try:
        result, error = resolve(fn)(**params), None
    except Exception as exc:  # counted as a failed point by the parent
        result, error = None, describe(exc)
    host_s = time.perf_counter() - t0
    layers.harvest_active()
    return {
        "result": result,
        "error": error,
        "host_s": host_s,
        "started": t0,
        "calib_s": statistics.mean(_SPEED.samples[-NEAREST:]) if in_worker else None,
        "pid": os.getpid(),
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def fig_point(
    n: int, model: str, scheme: str, grain: str, consistency: str, seed: int
) -> Dict[str, Any]:
    """One Figure 4-7 sample, as ``repro.experiments.fig_point`` builds it."""
    from repro.system.config import MachineConfig
    from repro.system.machine import Machine
    from repro.workloads import (
        GRAIN_SIZES,
        SyncModelParams,
        SyncModelWorkload,
        WorkQueueParams,
        WorkQueueWorkload,
    )

    protocol = "primitives" if scheme == "cbl" else "wbi"
    machine = Machine(MachineConfig(n_nodes=n, seed=seed), protocol=protocol)
    g = GRAIN_SIZES[grain]
    if model == "sync":
        wl = SyncModelWorkload(
            machine, SyncModelParams(grain_size=g, tasks_per_node=4), scheme, consistency
        )
    else:
        wl = WorkQueueWorkload(
            machine, WorkQueueParams(n_tasks=4 * n, grain_size=g), scheme, consistency
        )
    r = wl.run()
    return {"completion": r.completion_time, "messages": r.messages, "flits": r.flits}


def table2_point(n: int, scheme: str, seed: int) -> Dict[str, Any]:
    """One Table 2 cell (linear solver, 4 iterations) at ``seed``."""
    from repro.workloads import run_linsolver

    r = run_linsolver(n, scheme, iterations=4, seed=seed, cache_blocks=256, cache_assoc=2)
    return {
        "completion": r.completion_time,
        "messages": r.messages,
        "flits": r.flits,
        "flits_per_iter": r.extra["per_iteration"]["flits"],
    }


def table3_point(n: int, scheme: str, seed: int) -> Dict[str, Any]:
    """One Table 3 cell: ``n`` contenders on one lock, t_cs = 50."""
    from repro.sync.base import CBLLock
    from repro.sync.swlock import TTSLock
    from repro.system.config import MachineConfig
    from repro.system.machine import Machine

    m = Machine(
        MachineConfig(n_nodes=n, cache_blocks=256, cache_assoc=2, seed=seed),
        protocol="primitives" if scheme == "cbl" else "wbi",
    )
    lock = CBLLock(m) if scheme == "cbl" else TTSLock(m)

    def contender(p):
        yield from p.acquire(lock)
        yield from p.compute(50)
        yield from p.release(lock)

    for i in range(n):
        m.spawn(contender(m.processor(i)))
    m.run()
    met = m.metrics()
    return {"completion": m.sim.now, "messages": met.messages, "flits": met.flits}


def litmus_row(
    test: str, protocol: str, model: str, seeds: List[int], jitters: List[float]
) -> List[list]:
    """Observed outcomes of one three-way-gate row over explicit seeds."""
    from repro.verify.litmus import LITMUS_TESTS, observe_outcomes

    t = next(lt for lt in LITMUS_TESTS if lt.name == test)
    observed = observe_outcomes(t, protocol, model, seeds=seeds, jitters=jitters)
    return sorted([list(pair) for pair in out] for out in observed)


#: Conformance workload sizes: hot enough that syncmodel and workqueue
#: issue real global writes and critical sections (the shape the
#: conformance tests use), scaled to n = 8.
SYNC_PARAMS = dict(
    tasks_per_node=3, grain_size=40, shared_ratio=0.3, read_ratio=0.6, lock_ratio=0.7
)
QUEUE_PARAMS = dict(n_tasks=24, grain_size=30, shared_ratio_task=0.2)


def conformance_machine(model: str, protocol: str, scheme: str, seed: int, traced: bool):
    """Build and run one conformance config; returns ``(machine, result)``."""
    from repro.obs import ObsParams
    from repro.system.config import MachineConfig
    from repro.system.machine import Machine
    from repro.workloads import (
        SyncModelParams,
        SyncModelWorkload,
        WorkQueueParams,
        WorkQueueWorkload,
    )

    cfg = MachineConfig(
        n_nodes=8, cache_blocks=128, cache_assoc=2, seed=seed,
        obs=ObsParams() if traced else None,
    )
    machine = Machine(cfg, protocol=protocol)
    if model == "sync":
        wl = SyncModelWorkload(machine, SyncModelParams(**SYNC_PARAMS), scheme, "bc")
    else:
        wl = WorkQueueWorkload(machine, WorkQueueParams(**QUEUE_PARAMS), scheme, "bc")
    return machine, wl.run()


def conformance_check(machine) -> Dict[str, Any]:
    """Conformance-check a traced machine's execution."""
    from repro.axiom.conformance import check_trace

    report = check_trace(machine.obs.events)
    return {
        "trace_events": len(machine.obs.events),
        "conform_ok": report.ok,
        "counts": report.counts,
        "violations": [v.kind for v in report.violations[:8]],
    }
