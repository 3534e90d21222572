"""Per-layer host time, measured from outside the simulator.

The traced pass runs under :mod:`cProfile`, which times every function
call (each resume of a generator, i.e. of a simulated process, included)
without touching the simulator's code.  Each profiled function is folded
into the layer owning its source file.  A function outside the repository
(the standard library, numpy, a builtin) gives its self time to the
layers of its callers, in proportion to the time it spent under each
caller, recursively up to repository code.  ``other`` is the rest of the
pass's wall time: the benchmark's own code and the library time it calls,
the bookkeeping of :meth:`Tracer.harvest`, and the profiler's residue, so
the layers' self times add up to the pass's wall time.

``<layer>.calls`` counts every call of the layer's functions (calls
within the layer too, not only calls entering it from another layer).
The counts come from the machines the pass builds, which a hook on
``Machine.__init__`` collects; that hook is the only attribute patched.
"""

from __future__ import annotations

import cProfile
import os
import time
from collections import Counter
from typing import Any, Dict, List, Optional, Tuple

#: Layers, keyed by this repository's package names.  ``other`` holds
#: everything outside them: the benchmark itself, the standard library
#: called from it, and repro modules no workload uses.
LAYERS: Tuple[str, ...] = (
    "sim",
    "network",
    "coherence",
    "cache",
    "memory",
    "node",
    "sync",
    "system",
    "consistency",
    "faults",
    "obs",
    "axiom",
    "static",
    "verify",
    "scenarios",
    "sweep",
    "workloads.base",
    "workloads.demand",
    "workloads.policy",
    "workloads.service",
    "workloads.traffic",
    "workloads.syncmodel",
    "workloads.workqueue",
    "workloads.rounds",
    "workloads.linsolver",
    "other",
)
OTHER = LAYERS.index("other")

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src") + os.sep

#: The tracer that is profiling, if any (the profiler and the machine hook
#: are process-wide by nature).
_ACTIVE: Optional["Tracer"] = None

#: A profiled function: ``(file name, first line, name)``, as cProfile keys it.
Label = Tuple[str, int, str]


def layer_of(module: str) -> int:
    """Index in :data:`LAYERS` of the layer owning ``module``."""
    if module == "repro.sweep":
        return LAYERS.index("sweep")
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return OTHER
    name = parts[1]
    if name == "workloads" and len(parts) > 2:
        name = f"workloads.{parts[2]}"
    return LAYERS.index(name) if name in LAYERS else OTHER


def _file_layer(filename: str) -> Optional[int]:
    """Layer of code in ``filename``; ``None`` for code outside the
    repository, whose time goes to its callers."""
    if filename.startswith(("~", "<")):  # a builtin, or frozen library code
        return None
    path = os.path.abspath(filename)
    if path.startswith(_SRC):
        module = os.path.splitext(os.path.relpath(path, _SRC))[0].replace(os.sep, ".")
        return layer_of(module.removesuffix(".__init__"))
    if path.startswith(_ROOT + os.sep):
        return OTHER
    return None


def _label(fn: Any) -> Label:
    code = fn.__code__
    return code.co_filename, code.co_firstlineno, code.co_name


def _probes() -> Dict[Label, str]:
    """Inclusive-time probes: profiled function -> metric name."""
    from repro.axiom.conformance import check_trace
    from repro.sweep import _cache_read, _cache_write
    from repro.system.machine import Machine

    return {
        _label(Machine.__init__): "system.machine_init_s",
        _label(_cache_read): "sweep.cache_read_s",
        _label(_cache_write): "sweep.cache_write_s",
        _label(check_trace): "axiom.check_s",
    }


def fold(stats: Dict[Label, tuple], probes: Dict[Label, str]):
    """Per-layer self seconds and calls, and probe seconds, from cProfile
    stats (``label -> (prim. calls, calls, self s, incl. s, callers)``)."""
    self_s = [0.0] * len(LAYERS)
    calls = [0] * len(LAYERS)
    layer_by_file: Dict[str, Optional[int]] = {}
    shares: Dict[Label, Dict[int, float]] = {}

    def layer(label: Label) -> Optional[int]:
        if label[0] not in layer_by_file:
            layer_by_file[label[0]] = _file_layer(label[0])
        return layer_by_file[label[0]]

    def owners(label: Label, seen: frozenset = frozenset()) -> Dict[int, float]:
        """Share of ``label``'s self time owed to each layer (a cycle of
        library callers is cut where it closes)."""
        own = layer(label)
        if own is not None:
            return {own: 1.0}
        if label in shares:
            return shares[label]
        seen = seen | {label}
        callers = {c: v[2] for c, v in stats[label][4].items()
                   if c in stats and c not in seen and v[2] > 0}
        total = sum(callers.values())
        out: Dict[int, float] = Counter()
        for caller, tt in callers.items():
            for L, share in owners(caller, seen).items():
                out[L] += share * tt / total
        shares[label] = dict(out) or {OTHER: 1.0}
        return shares[label]

    for label, (_, nc, tt, _, _) in stats.items():
        for L, share in owners(label).items():
            self_s[L] += tt * share
        if layer(label) is not None:
            calls[layer(label)] += nc
    probe_s = {name: 0.0 for name in probes.values()}
    for label, name in probes.items():
        if label in stats:
            probe_s[name] += stats[label][3]
    return self_s, calls, probe_s


def harvest_active() -> None:
    """Fold finished machines into the active tracer's counts (if any)."""
    if _ACTIVE is not None:
        _ACTIVE.harvest()


class Tracer:
    """One traced pass: ``install()`` ... ``finish()`` ... ``uninstall()``."""

    def __init__(self) -> None:
        self.self_s: List[float] = [0.0] * len(LAYERS)
        self.calls: List[int] = [0] * len(LAYERS)
        self.probe_s: Dict[str, float] = {}
        self.counts: Counter = Counter()
        self.machines: List[Any] = []
        self.wall_s = 0.0
        self._profile = cProfile.Profile()
        self._probes: Dict[Label, str] = {}
        self._init: Any = None
        self._start = 0.0

    def install(self) -> None:
        """Hook ``Machine.__init__`` and start profiling."""
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("a tracer is already installed")
        from repro.system.machine import Machine

        self._probes = _probes()
        init = self._init = Machine.__init__
        machines = self.machines

        def collecting_init(machine, *args, **kwargs):
            init(machine, *args, **kwargs)
            machines.append(machine)

        Machine.__init__ = collecting_init
        _ACTIVE = self
        self._start = time.perf_counter()
        self._profile.enable()

    def finish(self) -> None:
        """Stop profiling and fold the profile into the layers."""
        self._profile.disable()
        self.wall_s = time.perf_counter() - self._start
        self._profile.create_stats()
        self.self_s, self.calls, self.probe_s = fold(self._profile.stats, self._probes)
        self.self_s[OTHER] += self.wall_s - sum(self.self_s)

    def uninstall(self) -> None:
        """Stop profiling (if still on) and restore ``Machine.__init__``."""
        global _ACTIVE
        self._profile.disable()
        if self._init is not None:
            from repro.system.machine import Machine

            Machine.__init__ = self._init
            self._init = None
        if _ACTIVE is self:
            _ACTIVE = None

    def harvest(self) -> None:
        """Fold every machine built since the last harvest into the counts.

        The profiler is off meanwhile, so the metric reads are the
        benchmark's time (``other``), not the layers'.  Functions still
        running at this point (a sweep loop calling the point) are closed
        by cProfile here; the rest of their self time is ``other``'s too.
        """
        self._profile.disable()
        try:
            c = self.counts
            for m in self.machines:
                met = m.metrics()
                c["sim.events"] += m.sim.events_processed
                c["network.messages"] += met.messages
                c["network.flits"] += met.flits
                c["network.latency_total"] += met.mean_net_latency * met.messages
                for key, value in met.node_counters.items():
                    if key.endswith(".read_hits"):
                        c["cache.read_hits"] += value
                    elif key.endswith(".read_misses"):
                        c["cache.read_misses"] += value
                c["faults.retries"] += met.retries
                c["faults.drops"] += sum(
                    v for k, v in met.faults.items() if k.endswith("drops")
                )
            c["system.machines"] += len(self.machines)
            self.machines.clear()
        finally:
            self._profile.enable()

    def metrics(self) -> Dict[str, float]:
        """Per-layer self time and calls, probes and counts, by name."""
        out: Dict[str, float] = {}
        for i, name in enumerate(LAYERS):
            out[f"{name}.self_s"] = self.self_s[i]
            out[f"{name}.calls"] = self.calls[i]
        out.update(self.probe_s)
        c = self.counts
        msgs = c["network.messages"]
        out["sim.events"] = c["sim.events"]
        out["sim.events_per_msg"] = c["sim.events"] / msgs if msgs else 0.0
        out["network.messages"] = msgs
        out["network.flits"] = c["network.flits"]
        out["network.latency_cycles"] = c["network.latency_total"] / msgs if msgs else 0.0
        reads = c["cache.read_hits"] + c["cache.read_misses"]
        out["cache.read_hit_ratio"] = c["cache.read_hits"] / reads if reads else 0.0
        out["system.machines"] = c["system.machines"]
        out["faults.retries"] = c["faults.retries"]
        out["faults.drops"] = c["faults.drops"]
        return out
