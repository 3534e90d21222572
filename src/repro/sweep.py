"""Parallel sweep runner with deterministic seeding and an on-disk cache.

Every figure/table reproduction is a bag of independent *points* — pure
functions of JSON-able parameters returning JSON-able results.  This module
runs such bags:

* **in parallel** across worker processes (``ProcessPoolExecutor``), since
  each point is an isolated simulation with no shared state.  Points go
  out in guided self-scheduling chunks (:func:`guided_chunks`): large
  while much work remains, one point at a time at the end, so a sweep of
  millisecond points pays a few dozen round trips to the pool instead of
  one per point, and the workers still finish together;
* **deterministically** — a point's result depends only on its parameters
  (each carries its own seed; :func:`derive_seed` splits independent
  sub-seeds from a base seed without correlation), never on worker
  scheduling; and
* **incrementally** — results are cached on disk keyed by a digest of the
  point function, its parameters, and the simulator's source (every
  ``*.py`` of this package), so re-running a campaign recomputes nothing
  while the code stands still, and any source edit starts a fresh cache —
  a cached result can never outlive the code that produced it.  Each
  result is written as soon as it reaches the parent, so a point that
  raises loses no finished work: a rerun recomputes only what is missing.

A point function is referenced by dotted path (``"repro.experiments:fig_point"``)
so workers import it by name — nothing is pickled beyond strings and plain
data, and the same task file works across interpreter sessions.

Environment knobs::

    REPRO_SWEEP_JOBS    worker count (default: os.cpu_count())
    REPRO_SWEEP_CACHE   cache directory (default: .repro-sweep-cache when
                        caching is requested without an explicit directory)

Usage::

    from repro.sweep import SweepTask, run_sweep
    tasks = [SweepTask("repro.experiments:fig_point",
                       {"n": n, "model": "queue", "scheme": "cbl",
                        "grain": "medium"}) for n in (2, 4, 8, 16)]
    results = run_sweep(tasks, jobs=8, cache_dir=".repro-sweep-cache")
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import importlib
import json
import os
import threading
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "cache_version",
    "source_digest",
    "SweepTask",
    "SweepStats",
    "task_digest",
    "config_fingerprint",
    "derive_seed",
    "run_sweep",
    "default_jobs",
    "guided_chunks",
]

#: This package's root: the source :func:`cache_version` digests.
_PACKAGE_ROOT = os.path.dirname(os.path.abspath(__file__))


def source_digest(root: str) -> str:
    """sha256 over every ``*.py`` file under ``root``: relative path and bytes.

    Files are visited in sorted relative-path order, so the digest depends
    only on the tree's content, never on the file system's listing order.
    """
    files = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for name in filenames:
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                files.append((os.path.relpath(path, root).replace(os.sep, "/"), path))
    h = hashlib.sha256()
    for rel, path in sorted(files):
        with open(path, "rb") as f:
            data = f.read()
        h.update(f"{rel}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


@functools.cache
def cache_version() -> str:
    """The code version in every task digest and cache entry.

    The :func:`source_digest` of this package, so any edit to the simulator
    invalidates every cached result.  Computed on first use and kept for
    the life of the process (never at import: a process that runs no
    sweep pays nothing).
    """
    return source_digest(_PACKAGE_ROOT)


@dataclass(frozen=True)
class SweepTask:
    """One sweep point: a dotted function path plus JSON-able kwargs.

    ``fn`` is ``"package.module:function"``; the function must be importable
    at module top level in a fresh interpreter (workers resolve it by name)
    and must return a JSON-serializable value.
    """

    fn: str
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if ":" not in self.fn:
            raise ValueError(f"fn must be 'module:function', got {self.fn!r}")
        # Fail fast on un-cacheable params rather than deep in a worker.
        json.dumps(self.params, sort_keys=True)


@dataclass
class SweepStats:
    """What :func:`run_sweep` did: cache hits vs. computed points."""

    total: int = 0
    hits: int = 0
    computed: int = 0
    jobs: int = 1


def _canonical(obj: Any) -> Any:
    """JSON-stable form of ``obj`` (dataclasses/tuples/sets normalized)."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__dataclass__": type(obj).__name__,
            **{f.name: _canonical(getattr(obj, f.name)) for f in dataclasses.fields(obj)},
        }
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(_canonical(v) for v in obj)
    return obj


def config_fingerprint(cfg: Any) -> str:
    """Short stable digest of a config object (e.g. ``MachineConfig``).

    Dataclasses are normalized field-by-field, so two configs digest equal
    exactly when every field (including nested resilience/obs params) does.
    """
    blob = json.dumps(_canonical(cfg), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def task_digest(task: SweepTask, version: Optional[str] = None) -> str:
    """Cache key of ``task``: sha256 over (version, fn, canonical params).

    ``version`` defaults to :func:`cache_version`.
    """
    if version is None:
        version = cache_version()
    blob = json.dumps(
        {"version": version, "fn": task.fn, "params": _canonical(task.params)},
        sort_keys=True,
    ).encode()
    return hashlib.sha256(blob).hexdigest()


def derive_seed(base_seed: int, *key: Any) -> int:
    """A deterministic 31-bit sub-seed for (``base_seed``, ``key``).

    Hash-derived, so sweep points get independent streams regardless of the
    order they run in — the parallel sweep and the serial loop see identical
    seeds.
    """
    blob = json.dumps([base_seed, [_canonical(k) for k in key]], sort_keys=True).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:4], "big") & 0x7FFFFFFF


def default_jobs() -> int:
    """Worker count: ``REPRO_SWEEP_JOBS`` or the machine's CPU count."""
    env = os.environ.get("REPRO_SWEEP_JOBS")
    if env:
        n = int(env)
        if n <= 0:
            raise ValueError(f"REPRO_SWEEP_JOBS must be positive, got {n}")
        return n
    return os.cpu_count() or 1


def default_cache_dir() -> str:
    return os.environ.get("REPRO_SWEEP_CACHE", ".repro-sweep-cache")


def _resolve(fn_path: str) -> Callable[..., Any]:
    mod_name, _, fn_name = fn_path.partition(":")
    fn = getattr(importlib.import_module(mod_name), fn_name, None)
    if fn is None:
        raise ImportError(f"cannot resolve sweep point function {fn_path!r}")
    return fn


def _run_task(fn_path: str, params: Dict[str, Any]) -> Any:
    """Resolve the point function by name and call it."""
    return _resolve(fn_path)(**params)


class _ChunkError(Exception):
    """A point of a chunk raised: the results of the points before it
    (``done``) and the point's exception (``exc``)."""

    def __init__(self, done: List[Any], exc: BaseException):
        super().__init__(done, exc)
        self.done = done
        self.exc = exc


def _run_chunk(items: List[Tuple[str, Dict[str, Any]]]) -> List[Any]:
    """Worker entry point: run a chunk's points in order, each on its own.

    A raising point stops the chunk; the results finished before it
    travel back with the exception, so the parent can still cache them.
    """
    done: List[Any] = []
    for fn_path, params in items:
        try:
            done.append(_run_task(fn_path, params))
        except Exception as exc:
            raise _ChunkError(done, exc) from exc
    return done


def guided_chunks(n: int, jobs: int) -> List[List[int]]:
    """Guided self-scheduling chunks of the points ``0 .. n-1`` on ``jobs``
    workers, in the order the pool should take them.

    Each chunk takes every ``2 * jobs``-th of the points still left, so
    ``ceil(left / (2 * jobs))`` of them: the first chunks are large (few
    round trips to the pool) and the sizes shrink to one point as the work
    runs out, so whichever worker frees up first takes the small tail.
    Taking every k-th point rather than a contiguous run spreads a block of
    expensive points (a figure's largest machines, listed together) over
    many chunks instead of handing it all to one worker.
    """
    step = 2 * jobs
    left = list(range(n))
    chunks = []
    while left:
        chunks.append(left[::step])
        del left[::step]
    return chunks


def _cache_path(cache_dir: str, digest: str) -> str:
    return os.path.join(cache_dir, f"{digest}.json")


def _cache_read(cache_dir: str, digest: str) -> Optional[Dict[str, Any]]:
    try:
        with open(_cache_path(cache_dir, digest)) as f:
            doc = json.load(f)
    except (OSError, ValueError):
        return None
    if doc.get("version") != cache_version():
        return None
    return doc


def _cache_write(cache_dir: str, digest: str, task: SweepTask, result: Any) -> None:
    """Atomic write (tmp + rename): concurrent jobs never see torn files.

    ``cache_dir`` must exist.  The temporary file is named after the
    writing process and thread, so no two writers share one.
    """
    doc = {
        "version": cache_version(),
        "fn": task.fn,
        "params": _canonical(task.params),
        "result": result,
    }
    path = _cache_path(cache_dir, digest)
    tmp = f"{path}.{os.getpid()}-{threading.get_ident()}.tmp"
    try:
        with open(tmp, "w") as f:
            f.write(json.dumps(doc, sort_keys=True))
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def run_sweep(
    tasks: Sequence[SweepTask],
    jobs: Optional[int] = None,
    cache_dir: Optional[str] = None,
    use_cache: bool = True,
    stats: Optional[SweepStats] = None,
) -> List[Any]:
    """Run every task, in parallel, returning results in task order.

    ``jobs=None`` uses :func:`default_jobs`; ``jobs=1`` runs inline (no
    pool — also the path workers themselves may take, since nested pools
    are not allowed).  ``cache_dir=None`` with ``use_cache=True`` uses
    :func:`default_cache_dir`.  Identical tasks in the batch are computed
    once.  Pass a :class:`SweepStats` to observe hit/computed counts.

    Every result is cached the moment it reaches this process.  If a point
    raises, the exception propagates: inline at once; from the pool after
    the chunks already handed out have landed, as the exception of the
    earliest failing point in task order.  Either way every result
    finished before the failure is in the cache.
    """
    tasks = list(tasks)
    if jobs is None:
        jobs = default_jobs()
    if use_cache and cache_dir is None:
        cache_dir = default_cache_dir()
    if stats is None:
        stats = SweepStats()
    stats.total = len(tasks)
    stats.jobs = jobs

    digests = [task_digest(t) for t in tasks]
    results: Dict[str, Any] = {}
    to_run: List[int] = []
    seen: set = set()
    for i, (task, digest) in enumerate(zip(tasks, digests)):
        if digest in seen or digest in results:
            continue
        if use_cache and cache_dir is not None:
            doc = _cache_read(cache_dir, digest)
            if doc is not None:
                results[digest] = doc["result"]
                stats.hits += 1
                continue
        seen.add(digest)
        to_run.append(i)

    stats.computed = len(to_run)
    write_to = cache_dir if use_cache else None
    if write_to is not None and to_run:
        os.makedirs(write_to, exist_ok=True)

    def land(indices: Sequence[int], values: Sequence[Any]) -> None:
        for i, value in zip(indices, values):
            results[digests[i]] = value
            if write_to is not None:
                _cache_write(write_to, digests[i], tasks[i], value)

    if jobs > 1 and len(to_run) > 1:
        jobs = min(jobs, len(to_run))
        chunks = [[to_run[k] for k in chunk] for chunk in guided_chunks(len(to_run), jobs)]
        #: (task index, exception, remote traceback) of the earliest failure.
        failure = None
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {
                pool.submit(_run_chunk, [(tasks[i].fn, tasks[i].params) for i in chunk]): chunk
                for chunk in chunks
            }
            for fut in as_completed(futures):
                chunk = futures[fut]
                failed = None
                try:
                    values = fut.result()
                except _ChunkError as err:
                    values = err.done
                    failed = (chunk[len(values)], err.exc, err.__cause__)
                except Exception as exc:  # the pool itself failed (a worker died)
                    values = []
                    failed = (chunk[0], exc, exc.__cause__)
                land(chunk, values)
                if failed is not None and (failure is None or failed[0] < failure[0]):
                    failure = failed
        if failure is not None:
            raise failure[1] from failure[2]
    else:
        for i in to_run:
            land((i,), (_run_task(tasks[i].fn, tasks[i].params),))

    return [results[d] for d in digests]
