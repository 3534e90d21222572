"""The parallel sweep runner: digests, cache, dedup, and determinism.

The runner's contract is that parallelism and caching are *invisible*: the
same task list yields the same result list whether points come from one
process, a pool, or the on-disk cache.  These tests pin each piece of that
contract without simulating anything expensive.
"""

import json
import os
import textwrap

import pytest

from repro.sweep import (
    SweepStats,
    SweepTask,
    cache_version,
    config_fingerprint,
    default_jobs,
    derive_seed,
    guided_chunks,
    run_sweep,
    source_digest,
    task_digest,
)
from repro.system.config import MachineConfig


# ------------------------------------------------------------------ digests


def test_task_digest_stable_under_param_order():
    a = SweepTask("m:f", {"x": 1, "y": [1, 2], "z": "s"})
    b = SweepTask("m:f", {"z": "s", "y": [1, 2], "x": 1})
    assert task_digest(a) == task_digest(b)


def test_task_digest_distinguishes_fn_params_and_version():
    base = SweepTask("m:f", {"x": 1})
    assert task_digest(base) != task_digest(SweepTask("m:g", {"x": 1}))
    assert task_digest(base) != task_digest(SweepTask("m:f", {"x": 2}))
    assert task_digest(base) != task_digest(base, version=cache_version() + "x")
    assert task_digest(base) == task_digest(base, version=cache_version())


def test_source_digest_tracks_every_source_byte(tmp_path):
    """The cache's code version moves with any edit to a ``.py`` file (or a
    renamed one) and ignores everything else."""
    pkg = tmp_path / "pkg"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "a.py").write_text("X = 1\n")
    (pkg / "sub" / "b.py").write_text("Y = 2\n")
    base = source_digest(str(pkg))
    assert source_digest(str(pkg)) == base
    (pkg / "notes.txt").write_text("not source")
    assert source_digest(str(pkg)) == base
    (pkg / "sub" / "b.py").write_text("Y = 3\n")
    changed = source_digest(str(pkg))
    assert changed != base
    (pkg / "sub" / "b.py").rename(pkg / "sub" / "c.py")
    assert source_digest(str(pkg)) not in (base, changed)


def test_cache_version_is_the_package_source_digest():
    import repro.sweep as sweep_mod

    root = os.path.dirname(os.path.abspath(sweep_mod.__file__))
    assert cache_version() == source_digest(root)
    assert cache_version() is cache_version()  # computed once per process


def test_task_digest_normalizes_tuples_to_lists():
    assert task_digest(SweepTask("m:f", {"v": (1, 2)})) == task_digest(
        SweepTask("m:f", {"v": [1, 2]})
    )


def test_sweep_task_validates_early():
    with pytest.raises(ValueError):
        SweepTask("no_colon_here", {})
    with pytest.raises(TypeError):
        SweepTask("m:f", {"bad": object()})


def test_config_fingerprint_tracks_every_field():
    a = MachineConfig(n_nodes=8, seed=1)
    b = MachineConfig(n_nodes=8, seed=1)
    c = MachineConfig(n_nodes=8, seed=2)
    assert config_fingerprint(a) == config_fingerprint(b)
    assert config_fingerprint(a) != config_fingerprint(c)


def test_derive_seed_deterministic_and_independent():
    s1 = derive_seed(42, "fig", 16, "queue")
    assert s1 == derive_seed(42, "fig", 16, "queue")
    assert 0 <= s1 < 2**31
    others = {derive_seed(42, "fig", n, "queue") for n in (2, 4, 8, 32)}
    assert s1 not in others and len(others) == 4
    assert derive_seed(43, "fig", 16, "queue") != s1


def test_default_jobs_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_SWEEP_JOBS", "3")
    assert default_jobs() == 3
    monkeypatch.setenv("REPRO_SWEEP_JOBS", "0")
    with pytest.raises(ValueError):
        default_jobs()


# ------------------------------------------------------------------ running


@pytest.fixture
def probe_module(tmp_path, monkeypatch):
    """A tiny importable point function that logs every invocation, so the
    tests can count how often a point was actually *computed*."""
    mod = tmp_path / "sweep_probe.py"
    mod.write_text(textwrap.dedent("""
        def point(tag, log):
            with open(log, "a") as f:
                f.write(tag + "\\n")
            return {"tag": tag, "value": len(tag)}

        def flaky(tag, log, failing):
            # Raises while ``tag`` is listed in the file ``failing``: the
            # failure lives outside the params, so a rerun after clearing
            # the file has the same task digests.
            with open(failing) as f:
                if tag in f.read().split():
                    raise RuntimeError(f"point {tag} failed")
            return point(tag, log)
    """))
    monkeypatch.syspath_prepend(str(tmp_path))
    log = tmp_path / "calls.log"
    log.write_text("")
    return log


def _calls(log):
    return log.read_text().splitlines()


def test_results_in_task_order_and_dedup(probe_module, tmp_path):
    log = probe_module
    tasks = [
        SweepTask("sweep_probe:point", {"tag": "a", "log": str(log)}),
        SweepTask("sweep_probe:point", {"tag": "bb", "log": str(log)}),
        SweepTask("sweep_probe:point", {"tag": "a", "log": str(log)}),  # dup
    ]
    stats = SweepStats()
    out = run_sweep(tasks, jobs=1, use_cache=False, stats=stats)
    assert [r["tag"] for r in out] == ["a", "bb", "a"]
    assert stats.total == 3 and stats.computed == 2
    assert sorted(_calls(log)) == ["a", "bb"]  # the duplicate ran once


def test_cache_round_trip(probe_module, tmp_path):
    log = probe_module
    cache = tmp_path / "cache"
    tasks = [
        SweepTask("sweep_probe:point", {"tag": t, "log": str(log)})
        for t in ("x", "y")
    ]
    s1 = SweepStats()
    first = run_sweep(tasks, jobs=1, cache_dir=str(cache), stats=s1)
    assert s1.hits == 0 and s1.computed == 2
    s2 = SweepStats()
    second = run_sweep(tasks, jobs=1, cache_dir=str(cache), stats=s2)
    assert s2.hits == 2 and s2.computed == 0
    assert first == second
    assert _calls(log) == ["x", "y"]  # second pass computed nothing
    # Atomic writes: only final .json files, no torn temporaries.
    names = os.listdir(cache)
    assert names and all(n.endswith(".json") for n in names)


def test_stale_cache_version_is_ignored(probe_module, tmp_path):
    log = probe_module
    cache = tmp_path / "cache"
    task = SweepTask("sweep_probe:point", {"tag": "v", "log": str(log)})
    run_sweep([task], jobs=1, cache_dir=str(cache))
    # Corrupt the version in place: the entry must read as a miss.
    (path,) = [cache / n for n in os.listdir(cache)]
    doc = json.loads(path.read_text())
    doc["version"] = "pr0.0"
    path.write_text(json.dumps(doc))
    stats = SweepStats()
    run_sweep([task], jobs=1, cache_dir=str(cache), stats=stats)
    assert stats.hits == 0 and stats.computed == 1
    assert _calls(log) == ["v", "v"]


def test_corrupt_cache_file_is_a_miss(probe_module, tmp_path):
    log = probe_module
    cache = tmp_path / "cache"
    task = SweepTask("sweep_probe:point", {"tag": "c", "log": str(log)})
    run_sweep([task], jobs=1, cache_dir=str(cache))
    (path,) = [cache / n for n in os.listdir(cache)]
    path.write_text("{ not json")
    out = run_sweep([task], jobs=1, cache_dir=str(cache))
    assert out == [{"tag": "c", "value": 1}]


def test_pool_and_inline_agree(probe_module, tmp_path):
    """jobs=N must yield exactly what jobs=1 yields, in the same order —
    worker scheduling (chunks included) is invisible in the result list,
    and a duplicated task is computed once either way."""
    log = probe_module
    tags = [f"t{i % 13}" for i in range(40)]  # 13 distinct points, repeated
    tasks = [SweepTask("sweep_probe:point", {"tag": t, "log": str(log)}) for t in tags]
    s1, s2 = SweepStats(), SweepStats()
    inline = run_sweep(tasks, jobs=1, use_cache=False, stats=s1)
    inline_calls = sorted(_calls(log))
    log.write_text("")
    pooled = run_sweep(tasks, jobs=2, use_cache=False, stats=s2)
    assert inline == pooled
    assert [r["tag"] for r in pooled] == tags
    assert s1.computed == s2.computed == 13
    assert sorted(_calls(log)) == inline_calls == sorted(set(tags))


def test_unresolvable_point_function_raises():
    with pytest.raises(ImportError):
        run_sweep([SweepTask("repro.sweep:no_such_point", {})], jobs=1, use_cache=False)


def test_guided_chunks_partition_and_shrink_to_single_points():
    for n in (1, 2, 3, 7, 64, 196, 236, 1000):
        for jobs in (1, 2, 3, 8):
            chunks = guided_chunks(n, jobs)
            assert sorted(i for c in chunks for i in c) == list(range(n))
            left = n
            for c in chunks:
                # A 1/(2 jobs) share of what is left, in task order.
                assert len(c) == -(-left // (2 * jobs))
                assert c == sorted(c)
                left -= len(c)
            assert len(chunks[-1]) == 1
    # A sweep of a few hundred small points is a few dozen round trips.
    assert len(guided_chunks(236, 2)) < 30


def test_guided_chunks_interleave_the_task_list():
    # Every 4th point (jobs=2), then every 4th of the rest: a block of
    # expensive neighbours is split over chunks, not handed to one worker.
    chunks = guided_chunks(16, 2)
    assert chunks[0] == [0, 4, 8, 12]
    assert chunks[1] == [1, 6, 11]
    assert max(len(set(range(4)) & set(c)) for c in chunks) == 1


def _flaky_tasks(log, failing, n=6):
    return [
        SweepTask("sweep_probe:flaky", {"tag": f"t{i}", "log": str(log), "failing": str(failing)})
        for i in range(n)
    ]


@pytest.mark.parametrize(
    "jobs, fail, kept",
    [
        (1, "t5", ["t0", "t1", "t2", "t3", "t4"]),
        (1, "t2", ["t0", "t1"]),  # inline stops at the failure
        # Pooled, chunks [t0 t4] [t1] [t2] [t3] [t5]: the points before the
        # failure in its chunk and every other chunk handed out still land;
        # the points after it in its chunk never run.
        (2, "t4", ["t0", "t1", "t2", "t3", "t5"]),
        (2, "t0", ["t1", "t2", "t3", "t5"]),
    ],
)
def test_failing_point_keeps_finished_results(probe_module, tmp_path, jobs, fail, kept):
    log = probe_module
    cache = tmp_path / "cache"
    failing = tmp_path / "failing"
    failing.write_text(fail)
    tasks = _flaky_tasks(log, failing)
    with pytest.raises(RuntimeError, match=f"point {fail} failed") as info:
        run_sweep(tasks, jobs=jobs, cache_dir=str(cache))
    if jobs > 1:
        assert "flaky" in str(info.value.__cause__)  # the worker's traceback
    assert sorted(_calls(log)) == kept
    assert len(os.listdir(cache)) == len(kept)
    # The rerun, failure gone, hits every finished point and computes the rest.
    failing.write_text("")
    log.write_text("")
    stats = SweepStats()
    out = run_sweep(tasks, jobs=jobs, cache_dir=str(cache), stats=stats)
    assert stats.hits == len(kept) and stats.computed == 6 - len(kept)
    assert sorted(_calls(log)) == sorted(set(f"t{i}" for i in range(6)) - set(kept))
    assert [r["tag"] for r in out] == [f"t{i}" for i in range(6)]
    assert all(n.endswith(".json") for n in os.listdir(cache))  # no temporaries left


def test_pool_raises_the_earliest_failure_in_task_order(probe_module, tmp_path):
    failing = tmp_path / "failing"
    failing.write_text("t4 t1")
    with pytest.raises(RuntimeError, match="point t1 failed"):
        run_sweep(_flaky_tasks(probe_module, failing), jobs=2, cache_dir=str(tmp_path / "c"))
