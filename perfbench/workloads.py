"""The benchmark's four workloads: plans, passes and result checks.

Each workload is one closed-loop client running a fixed set of points.  A
*plan* is the list of operations for one seed (every point's seed is
derived from the workload seed with :func:`repro.sweep.derive_seed`, so
the simulator receives only generated parameters); a *pass* runs the
plan once and returns one :class:`Outcome` per operation.  ``run.py``
repeats passes for the run's duration.

* ``figures`` — the report's Figure 4-7 points plus the Table 2 and 3
  cells, serially in-process: long-lived machines, kernel-bound.
* ``traffic`` — open-loop (in simulated time) service points below and
  past saturation, queue and kv services on all four protocol/lock pairs,
  placed round-robin so that requests cross the interconnect.
* ``campaign`` — litmus conformance rows and scenario pairs through
  ``run_sweep`` (cold, then warm from the same cache), then fuzz
  campaigns with and without faults: many short-lived machines.
* ``conformance`` — syncmodel and workqueue on every protocol x lock
  scheme the untraced machine accepts, each run untraced and traced, with
  every trace checked by ``axiom.conformance.check_trace``.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.sweep import SweepStats, SweepTask, derive_seed, run_sweep

from . import layers
from .points import conformance_check, conformance_machine, describe, resolve

_PTS = "perfbench.points"


@dataclass(frozen=True)
class Op:
    """One operation of a plan: a stable key and the call it makes."""

    key: str
    task: SweepTask


@dataclass
class Outcome:
    """What one operation produced in one pass."""

    key: str
    result: Any = None
    #: ``"Type: message"`` when the operation failed, else ``None``.
    error: Optional[str] = None
    #: Host seconds of the operation; a point-latency sample when ``point``.
    host_s: Optional[float] = None
    point: bool = True
    #: ``time.perf_counter()`` when the operation started (a system-wide
    #: clock, so pool workers' readings compare with the parent's).
    started: float = 0.0
    #: Mean calibration-kernel seconds measured where the operation ran,
    #: when that was another process (``None``: the parent's samples apply).
    calib_s: Optional[float] = None
    #: Whether the result has a digest pin; ``False`` for checks made
    #: against another outcome of the same pass (the warm sweep's).
    pinned: bool = True
    #: Simulated network messages, when the result reports them.
    messages: Optional[int] = None


@dataclass
class PassResult:
    outcomes: List[Outcome]
    #: Workload-specific measurements (sweep timings, obs seconds, ...).
    extra: Dict[str, float] = field(default_factory=dict)
    #: Peak RSS (KiB) of each pool worker that ran a point, by pid.
    worker_rss_kb: Dict[int, int] = field(default_factory=dict)


def messages_of(result: Any) -> Optional[int]:
    if isinstance(result, dict):
        if isinstance(result.get("messages"), int):
            return result["messages"]
        met = result.get("metrics")
        if isinstance(met, dict) and isinstance(met.get("messages"), int):
            return met["messages"]
    return None


def run_inline(op: Op) -> Outcome:
    """Run one operation in this process, catching its failure."""
    fn = resolve(op.task.fn)
    t0 = time.perf_counter()
    try:
        result, error = fn(**op.task.params), None
    except Exception as exc:  # a failing point is counted, the run goes on
        result, error = None, describe(exc)
    host_s = time.perf_counter() - t0
    layers.harvest_active()
    return Outcome(op.key, result, error, host_s, messages=messages_of(result), started=t0)


def _idle() -> None:
    pass


class Workload:
    """A named plan builder and pass runner."""

    name = ""
    #: Whether a pass dispatches through a worker pool.
    pooled = False

    def plan(self, seed: int) -> List[Op]:
        raise NotImplementedError

    def run_pass(self, plan: List[Op], jobs: int, workdir: str,
                 tick: Callable[[], None] = _idle) -> PassResult:
        """Run ``plan`` once; ``tick`` is called between operations (the
        host-speed calibration samples there)."""
        out = []
        for op in plan:
            tick()
            out.append(run_inline(op))
        return PassResult(out)

    def check(self, op: Op, outcome: Outcome) -> Optional[str]:
        """An invariant the result must satisfy beyond its pin, or ``None``."""
        return None


class Figures(Workload):
    name = "figures"

    #: Figure 4/5 series (model, scheme) and the Figure 6/7 grid, as in
    #: ``repro.experiments._plan`` for ``--quick``.
    SERIES = (("sync", "tts"), ("sync", "cbl"), ("queue", "tts"),
              ("queue", "tts_backoff"), ("queue", "cbl"))
    NS = (2, 4, 8, 16)

    def plan(self, seed: int) -> List[Op]:
        ops: List[Op] = []
        for n in self.NS[:3]:
            for s in ("read-update", "inv-I", "inv-II"):
                ops.append(Op(f"t2/{s}/n{n}", SweepTask(
                    f"{_PTS}:table2_point",
                    {"n": n, "scheme": s, "seed": derive_seed(seed, "t2", n, s)})))
        for n in (4, 8, 16):
            for s in ("cbl", "wbi"):
                ops.append(Op(f"t3/{s}/n{n}", SweepTask(
                    f"{_PTS}:table3_point",
                    {"n": n, "scheme": s, "seed": derive_seed(seed, "t3", n, s)})))
        grid = [(g, m, s, "sc") for g in ("medium", "coarse") for m, s in self.SERIES]
        grid += [(g, "queue", "cbl", "bc") for g in ("fine", "medium")]
        grid.append(("fine", "queue", "cbl", "sc"))
        for grain, model, scheme, c in grid:
            for n in self.NS:
                ops.append(Op(f"fig/{model}/{scheme}/{grain}/{c}/n{n}", SweepTask(
                    f"{_PTS}:fig_point",
                    {"n": n, "model": model, "scheme": scheme, "grain": grain,
                     "consistency": c,
                     "seed": derive_seed(seed, "fig", n, model, scheme, grain, c)})))
        return ops


class Traffic(Workload):
    name = "traffic"

    #: Round-robin placement serves each request on the next node, away
    #: from its key's home shard, so requests cross the interconnect
    #: (static sharding would keep every message node-local).
    POLICY = "round-robin"
    RATES = (0.5, 2.0, 6.0)
    COMBOS = (("primitives", "cbl"), ("primitives", "ts"), ("wbi", "tts"),
              ("writeupdate", "ts"))
    SERVICES = ("queue", "kv")

    def plan(self, seed: int) -> List[Op]:
        ops = []
        for service in self.SERVICES:
            for rate in self.RATES:
                for protocol, scheme in self.COMBOS:
                    ops.append(Op(f"traffic/{service}/{rate:g}/{protocol}/{scheme}", SweepTask(
                        "repro.workloads.traffic:traffic_point",
                        {"rate": rate, "horizon": 2_000.0, "service": service,
                         "policy": self.POLICY, "n_clients": 250_000, "protocol": protocol,
                         "lock_scheme": scheme,
                         "seed": derive_seed(seed, "traffic", service, rate, protocol, scheme)})))
        return ops


class Campaign(Workload):
    name = "campaign"
    pooled = True

    SCENARIO_SEEDS = 2
    LITMUS_SEEDS = 3
    JITTERS = (0.0, 2.0)
    FUZZ_CAMPAIGNS = 8
    FUZZ_ITERS = 24

    def plan(self, seed: int) -> List[Op]:
        from repro.scenarios import scenario_names
        from repro.verify.litmus import LITMUS_TESTS, PROTOCOLS

        ops: List[Op] = []
        for test in LITMUS_TESTS:
            for protocol in PROTOCOLS:
                if protocol not in test.protocols:
                    continue
                for model in ("sc", "bc", "wo", "rc"):
                    seeds = [derive_seed(seed, "litmus", test.name, protocol, model, i)
                             for i in range(self.LITMUS_SEEDS)]
                    ops.append(Op(f"litmus/{test.name}/{protocol}/{model}", SweepTask(
                        f"{_PTS}:litmus_row",
                        {"test": test.name, "protocol": protocol, "model": model,
                         "seeds": seeds, "jitters": list(self.JITTERS)})))
        for name in scenario_names():
            for i in range(self.SCENARIO_SEEDS):
                s = derive_seed(seed, "scenario", name, i)
                for attack in (False, True):
                    ops.append(Op(f"scenario/{name}/{i}/{'attack' if attack else 'base'}",
                                  SweepTask("repro.scenarios.runner:scenario_point",
                                            {"name": name, "seed": s, "attack": attack})))
        for faults in (False, True):
            for k in range(self.FUZZ_CAMPAIGNS):
                ops.append(Op(f"fuzz/{'faults' if faults else 'plain'}/{k}", SweepTask(
                    "repro.verify.fuzz:fuzz",
                    {"master_seed": derive_seed(seed, "fuzz", faults, k),
                     "iters": self.FUZZ_ITERS, "faults": faults, "do_shrink": False})))
        return ops

    def run_pass(self, plan: List[Op], jobs: int, workdir: str,
                 tick: Callable[[], None] = _idle) -> PassResult:
        from repro.scenarios import get_scenario, scenario_names
        from repro.scenarios.runner import evaluate_scenario

        swept = [op for op in plan if not op.key.startswith("fuzz/")]
        tasks = [SweepTask(f"{_PTS}:timed", {"fn": op.task.fn, "params": op.task.params})
                 for op in swept]
        os.makedirs(workdir, exist_ok=True)
        cache = os.path.join(workdir, f"sweep-cache-{os.getpid()}")
        shutil.rmtree(cache, ignore_errors=True)
        out: List[Outcome] = []
        extra: Dict[str, float] = {}
        rss: Dict[int, int] = {}
        try:
            cold_stats, warm_stats = SweepStats(), SweepStats()
            tick()
            t0 = time.perf_counter()
            cold = run_sweep(tasks, jobs=jobs, cache_dir=cache, stats=cold_stats)
            extra["sweep.cold_s"] = time.perf_counter() - t0
            tick()
            warm = run_sweep(tasks, jobs=jobs, cache_dir=cache, stats=warm_stats)
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        busy = 0.0
        docs: Dict[str, Any] = {}
        for op, doc in zip(swept, cold):
            docs[op.key] = doc
            busy += doc["host_s"]
            if doc["pid"] != os.getpid():
                rss[doc["pid"]] = max(rss.get(doc["pid"], 0), doc["rss_kb"])
            out.append(Outcome(op.key, doc["result"], doc.get("error"), doc["host_s"],
                               messages=messages_of(doc["result"]), started=doc["started"],
                               calib_s=doc["calib_s"]))
        extra["sweep.busy_s"] = busy
        extra["sweep.hits"] = cold_stats.hits + warm_stats.hits
        extra["sweep.computed"] = cold_stats.computed + warm_stats.computed
        # Verdicts fold each scenario's baseline/attack pairs, as the
        # scenarios CLI and the report do.
        for name in scenario_names():
            pairs = [(docs[f"scenario/{name}/{i}/base"], docs[f"scenario/{name}/{i}/attack"])
                     for i in range(self.SCENARIO_SEEDS)]
            key = f"verdict/{name}"
            if any(d.get("error") for pair in pairs for d in pair):
                out.append(Outcome(key, error="SkippedVerdict: a paired point failed",
                                   point=False))
                continue
            try:
                verdict = evaluate_scenario(
                    get_scenario(name), [(b["result"], a["result"]) for b, a in pairs])
                out.append(Outcome(key, verdict, point=False))
            except Exception as exc:
                out.append(Outcome(key, error=describe(exc), point=False))
        # The warm pass must be all hits and return exactly the cold docs.
        out.append(Outcome("warm/hits", {"hits": warm_stats.hits},
                           None if warm_stats.hits == len(tasks) else
                           f"StaleCache: {warm_stats.hits} of {len(tasks)} hits",
                           point=False))
        for op, c, w in zip(swept, cold, warm):
            out.append(Outcome(f"warm/{op.key}", None,
                               None if c == w else "StaleCache: warm result differs",
                               point=False, pinned=False))
        for op in plan:
            if op.key.startswith("fuzz/"):
                tick()
                out.append(self._fuzz(op))
        return PassResult(out, extra, rss)

    @staticmethod
    def _fuzz(op: Op) -> Outcome:
        from repro.verify.fuzz import fuzz

        t0 = time.perf_counter()
        try:
            r = fuzz(**op.task.params)
        except Exception as exc:
            return Outcome(op.key, error=describe(exc), host_s=time.perf_counter() - t0,
                           point=False)
        host_s = time.perf_counter() - t0
        layers.harvest_active()
        doc = {
            "iterations": r.iterations,
            "runs_by_combo": sorted([list(k), v] for k, v in r.runs_by_combo.items()),
            "failure": r.failure,
            "protocol": r.protocol,
            "model": r.model,
            "seed": r.seed,
            "jitter": r.jitter,
        }
        error = None
        if r.failure is not None:
            faults = "faults" if op.task.params["faults"] else "plain"
            error = (f"FuzzFailure[{faults} {r.protocol}x{r.model} "
                     f"iter {r.iterations - 1}]: {r.failure}")
        return Outcome(op.key, doc, error, host_s, point=False)

    def check(self, op: Op, outcome: Outcome) -> Optional[str]:
        if not op.key.startswith("litmus/") or outcome.result is None:
            return None
        from repro.verify.litmus import LITMUS_TESTS, allowed_outcomes

        p = op.task.params
        test = next(t for t in LITMUS_TESTS if t.name == p["test"])
        allowed = allowed_outcomes(test, p["protocol"], p["model"])
        observed = {tuple(tuple(pair) for pair in o) for o in outcome.result}
        bad = sorted(observed - allowed)
        return f"ModelViolation: outcome(s) {bad} not allowed" if bad else None


class Conformance(Workload):
    name = "conformance"

    #: Every protocol x lock scheme the untraced machine accepts (primitives
    #: rejects the cached-spinning software locks at construction).
    CONFIGS = tuple(
        [("wbi", s) for s in ("cbl", "ts", "tts", "tts_backoff", "ticket", "mcs")]
        + [("primitives", "cbl")]
        + [("writeupdate", s) for s in ("cbl", "ts", "tts", "tts_backoff", "ticket", "mcs")]
    )

    def plan(self, seed: int) -> List[Op]:
        ops = []
        for model in ("sync", "queue"):
            for protocol, scheme in self.CONFIGS:
                params = {"model": model, "protocol": protocol, "scheme": scheme,
                          "seed": derive_seed(seed, "conformance", model, protocol, scheme)}
                for traced in (False, True):
                    ops.append(Op(
                        f"conf/{model}/{protocol}/{scheme}/{'traced' if traced else 'plain'}",
                        SweepTask(f"{_PTS}:conformance_machine", {**params, "traced": traced})))
        return ops

    def run_pass(self, plan: List[Op], jobs: int, workdir: str,
                 tick: Callable[[], None] = _idle) -> PassResult:
        out: List[Outcome] = []
        plain_s: Dict[str, float] = {}
        plain_res: Dict[str, Any] = {}
        obs_plain = obs_traced = 0.0
        for op in plan:
            tick()
            traced = op.task.params["traced"]
            base = op.key.rsplit("/", 1)[0]
            t0 = time.perf_counter()
            try:
                machine, r = conformance_machine(**op.task.params)
                run_s = time.perf_counter() - t0
                result = {"completion": r.completion_time, "messages": r.messages,
                          "flits": r.flits}
                error = None
                if traced:
                    result.update(conformance_check(machine))
                    if not result["conform_ok"]:
                        error = f"ConformanceViolation: {result['violations']}"
                    elif base in plain_res and any(
                            result[k] != plain_res[base][k]
                            for k in ("completion", "messages", "flits")):
                        error = "TraceDivergence: tracing changed the simulated result"
                    elif base in plain_s:
                        obs_plain += plain_s[base]
                        obs_traced += run_s
                else:
                    plain_s[base], plain_res[base] = run_s, result
                del machine
            except Exception as exc:
                result, error = None, describe(exc)
            host_s = time.perf_counter() - t0
            layers.harvest_active()
            out.append(Outcome(op.key, result, error, host_s,
                               messages=None if traced else messages_of(result), started=t0))
        return PassResult(out, {"obs.plain_s": obs_plain, "obs.traced_s": obs_traced})


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (Figures(), Traffic(), Campaign(), Conformance())
}
