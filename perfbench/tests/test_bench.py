"""The benchmark's own tests: run with ``python3 -m pytest perfbench/tests``.

They pin the accounting rules (a raising point is a counted failure, a
perturbed result fails its pin, each operation counts once however many
passes repeat it), the metric naming contract, and the
traced pass's bookkeeping (layer self times plus ``other`` equal its wall
time, library time goes to the calling layer, and profiling changes no
simulated result).
"""

from __future__ import annotations

import json
import os
import re
import sys

import pytest

from perfbench import layers, pins, run, workloads
from perfbench.points import fig_point
from perfbench.workloads import Op, Workload, run_inline
from repro.sweep import SweepTask, run_sweep

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
_HERE = "perfbench.tests.test_bench"


def boom(**_):
    raise RuntimeError("point exploded")


def answer(value: int = 42):
    return {"value": value}


class _Fake(Workload):
    name = "fake"

    def plan(self, seed):
        return [Op("ok/1", SweepTask(f"{_HERE}:answer", {"value": seed})),
                Op("boom", SweepTask(f"{_HERE}:boom", {})),
                Op("ok/2", SweepTask(f"{_HERE}:answer", {}))]


# -- failures are counted, never fatal -----------------------------------------

def test_raising_point_is_counted_and_the_run_finishes(monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "fake", _Fake())
    r = run.Run("fake", 7, jobs=1)
    r.one_pass()
    r.one_pass()
    assert r.tally.attempted == 3
    assert r.tally.failed == 1
    assert not r.tally.correct  # an unknown failure class
    assert len(r.failures) == 1 and "point exploded" in r.failures[0]
    assert len(r.walls) == 2


def test_counts_do_not_depend_on_the_number_of_passes(monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "fake", _Fake())
    counts = []
    for passes in (1, 3):
        r = run.Run("fake", 7, jobs=1)
        for _ in range(passes):
            r.one_pass()
        counts.append((r.tally.attempted, r.tally.failed, len(r.tally.unexpected)))
    assert counts[0] == counts[1] == (3, 1, 1)


def test_an_operation_failing_in_a_later_pass_is_counted_once():
    result = {"value": 1}
    tally = pins.Tally()
    tally.add("p", result, None, pins.digest(result))
    tally.add("p", {"value": 2}, None, pins.digest(result))
    tally.add("p", {"value": 3}, None, pins.digest(result))
    tally.add("q", None, "AttributeError: 'TSLock' object has no attribute 'block'", None)
    tally.add("q", None, "RuntimeError: something new", "failed-a")
    assert (tally.attempted, tally.failed) == (2, 2)
    assert dict(tally.by_class) == {"digest": 1, "a": 1}
    assert len(tally.unexpected) == 3 and not tally.correct


def test_raising_sweep_point_comes_back_as_an_error():
    tasks = [SweepTask("perfbench.points:timed", {"fn": f"{_HERE}:{fn}", "params": {}})
             for fn in ("answer", "boom", "answer")]
    docs = run_sweep(tasks, jobs=1, use_cache=False)
    assert [d["error"] is None for d in docs] == [True, False, True]
    assert docs[1]["error"].startswith("RuntimeError: point exploded")
    assert docs[0]["result"] == {"value": 42}


def test_inline_error_keeps_the_traceback_site():
    out = run_inline(Op("boom", SweepTask(f"{_HERE}:boom", {})))
    assert out.result is None and "test_bench.py" in out.error


@pytest.mark.parametrize("text, cls", [
    ("AttributeError: 'SWBarrier' object has no attribute 'block' [processor.py:1]", "a"),
    ("FuzzFailure[faults writeupdate x bc iter 3]: structural invariant: block 5: node 2 "
     "copy [0, 0, 0, 0] != memory [1, 0, 0, 0] at quiescence", "b"),
    ("FuzzFailure[faults wbi x wo iter 14]: structural invariant: block 11: node 2 holds "
     "SHARED but is not registered", "c"),
    ("FuzzFailure[faults primitives x sc iter 16]: rmw linearizability: no linearization", "d"),
    ("InvariantViolation: block 4: node 3 copy [2, 1, 4, 0] != memory [3, 1, 4, 0] at "
     "quiescence [checkers.py:34]", "e"),
    ("FuzzFailure[plain writeupdate x bc iter 3]: structural invariant: block 5: node 2 "
     "copy [0] != memory [1] at quiescence", None),
    ("AttributeError: 'Foo' object has no attribute 'bar'", None),
])
def test_known_failure_classes(text, cls):
    assert pins.classify(text) == cls


# -- digest pins ------------------------------------------------------------------

def test_perturbed_result_fails_its_pin():
    result = {"completion": 1234.0, "messages": 56, "flits": 78}
    tally = pins.Tally()
    tally.add("p", result, None, pins.digest(result))
    assert (tally.failed, tally.correct) == (0, True)
    tally.add("p", {**result, "messages": 57}, None, pins.digest(result))
    assert tally.failed == 1 and not tally.correct
    assert tally.by_class["digest"] == 1


def test_committed_pin_matches_a_recomputed_point():
    keys = [o for o in pins.load("figures")["keys"]]
    pinned = pins.pins_for("figures", 0, keys)
    assert pinned is not None, "seed 0 of figures must be pinned"
    op = next(o for o in workloads.WORKLOADS["figures"].plan(0)
              if o.key == "fig/sync/cbl/medium/sc/n4")
    result = fig_point(**op.task.params)
    tally = pins.Tally()
    tally.add(op.key, result, None, pinned[op.key])
    tally.add(op.key, {**result, "completion": result["completion"] + 1}, None,
              pinned[op.key])
    assert tally.failed == 1 and tally.by_class["digest"] == 1


def test_known_failure_that_stops_failing_is_not_a_failure():
    tally = pins.Tally()
    tally.add("conf/x/traced", {"completion": 1.0}, None, "failed-a")
    tally.add("conf/y/traced", None, "AttributeError: 'TSLock' object has no attribute "
              "'block'", "failed-a")
    assert (tally.attempted, tally.failed, tally.fixed, tally.correct) == (2, 1, 1, True)


# -- the metric contract ------------------------------------------------------------

def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_metric_names_and_units_follow_the_contract():
    names = list(run.END_TO_END) + list(run.per_layer_units())
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for unit, better in list(run.END_TO_END.values()) + list(run.per_layer_units().values()):
        assert UNIT.match(unit) and better in ("lower", "higher")


def test_benchmark_json_lists_what_the_runner_prints():
    doc = _benchmark_json()
    assert {w["name"] for w in doc["workloads"]} == set(workloads.WORKLOADS)
    e2e = {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]}
    assert e2e == run.END_TO_END
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]}
    assert per_layer == run.per_layer_units()
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


# -- the traced pass ------------------------------------------------------------------

def _points():
    return [fig_point(4, "queue", "tts", "fine", "sc", 11),
            fig_point(4, "sync", "cbl", "fine", "bc", 12)]


def test_layer_self_times_plus_other_add_up_to_the_wall_time():
    plain = _points()
    tracer = layers.Tracer()
    tracer.install()
    try:
        traced = _points()
        layers.harvest_active()
        tracer.finish()
    finally:
        tracer.uninstall()
    assert traced == plain  # profiling changes no simulated result
    m = tracer.metrics()
    total = sum(m[f"{layer}.self_s"] for layer in layers.LAYERS)
    assert total == pytest.approx(tracer.wall_s, rel=1e-9, abs=1e-9)
    for layer in ("sim", "network", "coherence", "cache", "node"):
        assert m[f"{layer}.self_s"] > 0 and m[f"{layer}.calls"] > 0
    assert m["system.machines"] == 2
    assert m["network.messages"] == sum(p["messages"] for p in plain)


def test_traced_run_prints_every_per_layer_metric(monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "fake", _Fake())
    r = run.Run("fake", 3, jobs=1)
    metrics = run.traced(r, 0)
    assert set(metrics) == set(run.per_layer_units())
    assert r.tally.attempted == 3 and r.tally.failed == 1


def test_uninstall_restores_the_simulator():
    from repro.system.machine import Machine

    original = Machine.__init__
    tracer = layers.Tracer()
    tracer.install()
    assert Machine.__init__ is not original and sys.getprofile() is not None
    tracer.finish()
    tracer.uninstall()
    assert Machine.__init__ is original and sys.getprofile() is None
    assert layers._ACTIVE is None


def test_library_time_goes_to_the_calling_layer():
    """A builtin's self time is split over its callers' layers by the time
    spent under each; a library function's callers are followed upward."""
    sim = (os.path.join(ROOT, "src", "repro", "sim", "core.py"), 1, "run")
    net = (os.path.join(ROOT, "src", "repro", "network", "omega.py"), 1, "send")
    lib = (os.__file__, 1, "helper")
    builtin = ("~", 0, "<built-in method _heapq.heappush>")
    stats = {
        sim: (1, 1, 0.5, 2.0, {}),
        net: (4, 4, 0.25, 0.75, {sim: (4, 4, 0.25, 0.75)}),
        lib: (2, 2, 0.1, 0.4, {net: (2, 2, 0.1, 0.4)}),
        builtin: (9, 9, 0.8, 0.8, {sim: (6, 6, 0.6, 0.6), lib: (3, 3, 0.2, 0.2)}),
    }
    self_s, calls, probe_s = layers.fold(stats, {sim: "sim.run_s"})
    L = layers.LAYERS.index
    assert self_s[L("sim")] == pytest.approx(0.5 + 0.6)
    assert self_s[L("network")] == pytest.approx(0.25 + 0.1 + 0.2)
    assert sum(self_s) == pytest.approx(0.5 + 0.25 + 0.1 + 0.8)
    assert (calls[L("sim")], calls[L("network")], sum(calls)) == (1, 4, 5)
    assert probe_s == {"sim.run_s": 2.0}
