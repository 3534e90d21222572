"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload figures --seed 0 --seconds 20 --trace 0

``--trace 0`` repeats untraced passes of the workload's fixed work until
``--seconds`` have passed and prints the end-to-end metrics; ``--trace 1``
does the same and then one traced pass, and prints the per-layer
metrics.  Every outcome is checked against its digest pin (or, for a seed
without pins, the workload's invariants and agreement between passes);
failures are counted, never hidden.  ``attempted`` and ``failed`` count
each of the plan's operations once, however many passes the run makes,
so they depend on the seed alone.  Each metric is printed as
``name = value unit``; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A record with provenance goes
to ``.perfbench/records/``.

Exit codes: 0 on a finished run (whatever it counted), 2 when the
simulator's sources are missing or the arguments are bad.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench")
#: Set-ups measured per run at least (``setup_s`` is their median).
SETUP_TRIALS = 7

#: End-to-end metrics: name -> (unit, better).  Timings come from the
#: untraced passes.
END_TO_END: Dict[str, Tuple[str, str]] = {
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "msgs_per_s": ("1/s", "higher"),
    "point_p50_ms": ("ms", "lower"),
    "point_p95_ms": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: Per-layer metrics of the traced pass beyond ``<layer>.self_s`` and
#: ``<layer>.calls``: name -> (unit, better).
LAYER_EXTRAS: Dict[str, Tuple[str, str]] = {
    "sim.events": ("count", "lower"),
    "sim.events_per_msg": ("events/msg", "lower"),
    "network.messages": ("count", "lower"),
    "network.flits": ("count", "lower"),
    "network.latency_cycles": ("cycles", "lower"),
    "cache.read_hit_ratio": ("ratio", "higher"),
    "system.machines": ("count", "lower"),
    "system.machine_init_s": ("s", "lower"),
    "sweep.dispatch_s": ("s", "lower"),
    "sweep.worker_busy_share": ("ratio", "higher"),
    "sweep.cache_write_s": ("s", "lower"),
    "sweep.cache_read_s": ("s", "lower"),
    "sweep.hits": ("count", "higher"),
    "sweep.computed": ("count", "lower"),
    "faults.retries": ("count", "lower"),
    "faults.drops": ("count", "lower"),
    "verify.fuzz_iters": ("count", "higher"),
    "scenarios.verdicts_ok": ("count", "higher"),
    "workloads.traffic.backlog_peak": ("requests", "lower"),
    "workloads.traffic.saturated_batches": ("count", "lower"),
    "obs.trace_events": ("count", "lower"),
    "obs.overhead": ("x", "lower"),
    "axiom.check_s": ("s", "lower"),
    "axiom.performs_checked": ("count", "higher"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead": ("x", "lower"),
}


def per_layer_units() -> Dict[str, Tuple[str, str]]:
    """Every per-layer metric the traced pass prints: name -> (unit, better)."""
    from perfbench.layers import LAYERS

    out: Dict[str, Tuple[str, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = ("s", "lower")
        out[f"{layer}.calls"] = ("count", "lower")
    out.update(LAYER_EXTRAS)
    return out


def default_jobs() -> int:
    """Pool size for the campaign sweep: at most two, at most ``nproc``."""
    return max(1, min(2, os.cpu_count() or 1))


def source_digest() -> str:
    """sha256 over ``src/repro/**/*.py`` (relative paths and contents)."""
    h = hashlib.sha256()
    base = os.path.join(SRC, "repro")
    paths = []
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        paths += [os.path.join(dirpath, f) for f in filenames if f.endswith(".py")]
    for path in sorted(paths):
        h.update(os.path.relpath(path, base).encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read() + b"\0")
    return h.hexdigest()


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def cpu_seconds() -> float:
    """User+sys CPU of this process and its reaped children (pool workers)."""
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


# -- set-up ------------------------------------------------------------------

def prepare(name: str, seed: int):
    """Imports, plan and point-function resolution: everything before the
    first point starts.  Returns ``(workload, plan)``."""
    from perfbench.points import resolve
    from perfbench.workloads import WORKLOADS

    wl = WORKLOADS[name]
    plan = wl.plan(seed)
    for op in plan:
        resolve(op.task.fn)
    return wl, plan


def probe(name: str, seed: int) -> None:
    """One set-up in a fresh interpreter; prints ``ready`` when the first
    point could start (for the campaign, once the pool's workers are up)."""
    wl, _ = prepare(name, seed)
    jobs = default_jobs()
    if wl.pooled and jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for fut in [pool.submit(os.getpid) for _ in range(jobs)]:
                fut.result()
            print("ready", flush=True)
    else:
        print("ready", flush=True)


def launch(args: Sequence[str]) -> float:
    """Seconds from launching ``python3 *args`` in the repository root to
    its first line, which must be ``ready``."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        dt = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        proc.wait(timeout=120)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"launch of {args[0]!r} failed (exit {proc.returncode})")
    return dt


def setup_trial(name: str, seed: int) -> Tuple[float, float]:
    """Seconds from interpreter launch to ``ready`` for one set-up probe:
    ``(scaled, raw)``, scaled by the reference launches on each side."""
    from perfbench.calibrate import LAUNCH, LAUNCH_REF_S

    before = launch(LAUNCH)
    raw = launch([os.path.abspath(__file__), "--probe", "--workload", name,
                  "--seed", str(seed)])
    after = launch(LAUNCH)
    return raw * LAUNCH_REF_S * 2 / (before + after), raw


# -- passes ------------------------------------------------------------------

class Run:
    """The passes of one run and everything measured about them.

    Host times are scaled to the reference speed by the calibration
    samples taken around and during each pass (:mod:`perfbench.calibrate`);
    ``raw_walls`` keeps the unscaled pass times.
    """

    def __init__(self, name: str, seed: int, jobs: int):
        from perfbench import pins
        from perfbench.calibrate import Speed

        self.name, self.seed, self.jobs = name, seed, jobs
        self.wl, self.plan = prepare(name, seed)
        self.ops = {op.key: op for op in self.plan}
        self.speed = Speed()
        self.tally = pins.Tally()
        self.walls: List[float] = []
        self.raw_walls: List[float] = []
        self.cpus: List[float] = []
        self.rates: List[float] = []
        self.points_ms: List[float] = []
        self.worker_rss_kb = 0
        self.failures: List[str] = []
        self._pinned: Optional[Dict[str, str]] = None
        self._first: Optional[Dict[str, str]] = None

    def one_pass(self, jobs: Optional[int] = None, timed: bool = True, tracer=None):
        """Run the plan once and account every outcome.

        Returns ``(pass, scaled wall seconds, scale factor)``.  Calibration
        samples bracket the pass and are taken between its operations;
        their time is taken out of the pass's.  With a ``tracer``
        (:class:`perfbench.layers.Tracer`) the pass between the brackets is
        profiled and takes no samples inside (the profiler would slow the
        kernel and its time would land in ``other``).
        """
        from perfbench import pins
        from perfbench.calibrate import REF_S

        os.makedirs(WORKDIR, exist_ok=True)
        speed, i0 = self.speed, len(self.speed.samples)
        speed.sample()
        tick = speed.tick if tracer is None else (lambda: None)
        if tracer is not None:
            tracer.install()
        c0, t0 = cpu_seconds(), time.perf_counter()
        res = self.wl.run_pass(self.plan, jobs or self.jobs, WORKDIR, tick)
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
        if tracer is not None:
            tracer.finish()
        inside = speed.spent(i0 + 1)
        wall, cpu = wall - inside, cpu - inside
        speed.sample()
        f = speed.factor(i0)
        keys = [o.key for o in res.outcomes if o.pinned]
        first = self._first is None
        if first:
            self._pinned = pins.pins_for(self.name, self.seed, keys)
            self.tally.pinned = self._pinned is not None
        for o in res.outcomes:
            if self._pinned is not None:
                expected = self._pinned.get(o.key)
            else:
                expected = None if first else self._first[o.key]
            op = self.ops.get(o.key)
            check = self.wl.check(op, o) if first and op is not None else None
            self.tally.add(o.key, o.result, o.error, expected, check)
            failure = f"{o.key}: {o.error or check}"
            if (o.error or check) and len(self.failures) < 64 \
                    and failure not in self.failures:
                self.failures.append(failure)
        if first:
            self._first = {o.key: pins.entry(o.result, o.error) for o in res.outcomes}
        if timed:
            self.walls.append(wall * f)
            self.raw_walls.append(wall)
            self.cpus.append(cpu * f)
            msgs = busy = 0.0
            for o in res.outcomes:
                if not o.host_s:
                    continue
                if o.calib_s is not None:
                    scaled = o.host_s * REF_S / o.calib_s
                else:
                    scaled = o.host_s * speed.local_factor(i0, o.started, o.started + o.host_s)
                if o.point:
                    self.points_ms.append(scaled * 1e3)
                if o.messages is not None:
                    msgs += o.messages
                    busy += scaled
            self.rates.append(msgs / busy if busy else 0.0)
        self.worker_rss_kb = max(self.worker_rss_kb, sum(res.worker_rss_kb.values()))
        return res, wall * f, f

    def peak_rss_mb(self) -> float:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return (own + self.worker_rss_kb) / 1024.0


def end_to_end(run: Run, setup: List[float]) -> Dict[str, float]:
    return {
        "wall_s": statistics.median(run.walls),
        "cpu_s": statistics.median(run.cpus),
        "msgs_per_s": statistics.median(run.rates),
        "point_p50_ms": percentile(run.points_ms, 50),
        "point_p95_ms": percentile(run.points_ms, 95),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": run.peak_rss_mb(),
    }


def timed_passes(run: Run, seconds: float, between=lambda: None) -> list:
    """Untraced passes until ``seconds`` have passed (at least one), each
    after a call of ``between``; returns ``(pass, scale factor)`` for each."""
    passes = []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < seconds:
        between()
        res, _, f = run.one_pass()
        passes.append((res, f))
    return passes


def traced(run: Run, seconds: float) -> Dict[str, float]:
    """Untraced passes for ``seconds``, then one traced pass; the
    per-layer metrics.

    The traced pass runs in-process, so its self times add up to its wall
    time; its overhead is taken against the untraced passes (for the
    pooled campaign, an extra in-process one).  The calibration samples
    around it scale its times.
    """
    from perfbench.layers import Tracer

    plains = timed_passes(run, seconds)
    base_wall = statistics.median(run.walls)
    if run.wl.pooled and run.jobs > 1:
        _, base_wall, _ = run.one_pass(jobs=1, timed=False)
    tracer = Tracer()
    try:
        res, _, f = run.one_pass(jobs=1, timed=False, tracer=tracer)
    finally:
        tracer.uninstall()
    out = {k: v * f if k.endswith("_s") else v for k, v in tracer.metrics().items()}
    results = [o.result for o in res.outcomes if o.result is not None]

    def median_of(fn) -> float:
        return statistics.median(fn(p.extra, pf) for p, pf in plains)

    # From the untraced passes: the pool's dispatch overhead (cold sweep
    # wall beyond its workers' busy time per worker) and the program
    # tracing cost (traced / untraced machine-run seconds, same configs).
    out["sweep.dispatch_s"] = median_of(
        lambda ex, pf: max(0.0, ex["sweep.cold_s"] - ex["sweep.busy_s"] / run.jobs) * pf
        if "sweep.cold_s" in ex else 0.0)
    out["sweep.worker_busy_share"] = median_of(
        lambda ex, pf: ex["sweep.busy_s"] / (run.jobs * ex["sweep.cold_s"])
        if "sweep.cold_s" in ex else 0.0)
    out["sweep.hits"] = res.extra.get("sweep.hits", 0)
    out["sweep.computed"] = res.extra.get("sweep.computed", 0)
    fuzz = [o.result for o in res.outcomes if o.key.startswith("fuzz/") and o.result]
    out["verify.fuzz_iters"] = sum(r["iterations"] for r in fuzz)
    out["scenarios.verdicts_ok"] = sum(
        1 for o in res.outcomes if o.key.startswith("verdict/") and o.result and o.result["ok"])
    traffic = [r for r in results if isinstance(r, dict) and "backlog_peak" in r]
    out["workloads.traffic.backlog_peak"] = max((r["backlog_peak"] for r in traffic), default=0)
    out["workloads.traffic.saturated_batches"] = sum(r["saturated_batches"] for r in traffic)
    conf = [r for r in results if isinstance(r, dict) and "trace_events" in r]
    out["obs.trace_events"] = sum(r["trace_events"] for r in conf)
    out["axiom.performs_checked"] = sum(r["counts"]["performs"] for r in conf)
    out["obs.overhead"] = median_of(
        lambda ex, pf: ex["obs.traced_s"] / ex["obs.plain_s"] if ex.get("obs.plain_s") else 0.0)
    out["trace.wall_s"] = tracer.wall_s * f
    out["trace.overhead"] = tracer.wall_s * f / base_wall
    return out


# -- output ------------------------------------------------------------------

def provenance(name: str, seed: int, jobs: int, trace: int) -> Dict[str, Any]:
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "jobs": jobs,
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "repro_kernel": os.environ.get("REPRO_KERNEL", ""),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: simulator sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    from perfbench.calibrate import REF_S
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.probe:
        probe(args.workload, args.seed)
        return 0
    jobs = default_jobs()

    run = Run(args.workload, args.seed, jobs)
    setup: List[float] = []
    setup_raw: List[float] = []

    def trial() -> None:
        scaled, raw = setup_trial(args.workload, args.seed)
        setup.append(scaled)
        setup_raw.append(raw)

    if args.trace:
        metrics = traced(run, args.seconds)
        units = per_layer_units()
    else:
        # Set-ups are spread over the run, one before each pass, because
        # this host's speed shifts every few seconds: back-to-back trials
        # would all land in one speed regime.
        timed_passes(run, args.seconds, between=trial)
        while len(setup) < SETUP_TRIALS:
            trial()
        metrics = end_to_end(run, setup)
        units = END_TO_END

    prov = provenance(args.workload, args.seed, jobs, args.trace)
    tally = run.tally
    print(f"# {args.workload} seed={args.seed} passes={len(run.walls)} "
          f"points={len(run.points_ms)} pinned={tally.pinned} "
          f"source={prov['source_sha256'][:12]} python={prov['python']} "
          f"nproc={prov['nproc']} jobs={jobs} kernel={prov['repro_kernel'] or 'default'}")
    print(f"# raw pass walls (s): {[round(w, 3) for w in run.raw_walls]}; calibration "
          f"kernel median {statistics.median(run.speed.samples) * 1e3:.3f} ms "
          f"(reference {REF_S * 1e3:g} ms)")
    print(f"# attempted={tally.attempted} failed={tally.failed} "
          f"failed_share={tally.failed / tally.attempted:.6f} "
          f"by_class={dict(sorted(tally.by_class.items()))} fixed={tally.fixed}")
    from perfbench.pins import KNOWN_FAILURES

    for cls, count in sorted(tally.by_class.items()):
        if cls in KNOWN_FAILURES:
            print(f"# known failure ({cls}) x{count}: {KNOWN_FAILURES[cls][1]}")
    for line in tally.unexpected[:20]:
        print(f"# UNEXPECTED {line}")
    for name, value in metrics.items():
        print(f"{name} = {value} {units[name][0]}")

    record = {
        "provenance": prov,
        "metrics": metrics,
        "setup_trials_s": setup,
        "setup_trials_raw_s": setup_raw,
        "pass_walls_s": run.walls,
        "pass_walls_raw_s": run.raw_walls,
        "calibration_s": run.speed.samples,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_by_class": dict(tally.by_class),
        "fixed": tally.fixed,
        "pinned": tally.pinned,
        "unexpected": tally.unexpected,
        "failures": run.failures,
    }
    rec_dir = os.path.join(WORKDIR, "records")
    os.makedirs(rec_dir, exist_ok=True)
    path = os.path.join(rec_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k][0]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
