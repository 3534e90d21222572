"""``LatencyHistogram.record_many`` is a batched ``record``, nothing more.

Counts, ``total`` and ``max`` must equal those of a loop of :meth:`record`
on every input, bucket edges and the overflow bucket included.  ``sum`` is
numpy's own reduction of the float64 batch (pairwise, not Python's
left-to-right order), so the traffic report's JSON keeps its last bits.
"""

import numpy as np
import pytest

from repro.system.metrics import LATENCY_BOUNDS, LatencyHistogram


def _looped(values) -> LatencyHistogram:
    h = LatencyHistogram()
    for v in values:
        h.record(v)
    return h


def _batched(*batches) -> LatencyHistogram:
    h = LatencyHistogram()
    for b in batches:
        h.record_many(b)
    return h


_EDGES = np.array(
    [float(b) for b in LATENCY_BOUNDS]
    + [b + 0.5 for b in LATENCY_BOUNDS[:-1]]
    + [np.nextafter(float(b), -np.inf) for b in LATENCY_BOUNDS[1:]]
    + [0.0, 0.25, 2e9, 1e12]
)


def _random_batches():
    rng = np.random.default_rng(7)
    out = []
    for size in (1, 2, 5, 17, 64, 300):
        out.append(rng.exponential(scale=200.0, size=size))
        out.append(np.round(rng.uniform(0.0, 5000.0, size=size)))
    out.append(rng.lognormal(mean=10.0, sigma=6.0, size=200))  # many past the last bound
    return out


@pytest.mark.parametrize("values", _random_batches() + [_EDGES], ids=lambda v: f"n{v.size}")
def test_record_many_matches_a_record_loop(values):
    h = _batched(values)
    ref = _looped(values.tolist())
    assert h.counts == ref.counts
    assert h.total == ref.total == values.size
    assert h.max == ref.max
    assert h.sum.hex() == float(np.asarray(values, dtype=np.float64).sum()).hex()


def test_edges_land_in_their_own_bucket():
    h = _batched(np.array([float(b) for b in LATENCY_BOUNDS]))
    # Bucket i holds BOUNDS[i-1] < v <= BOUNDS[i]: each edge is the top of
    # its own bucket, and nothing reaches the overflow bucket.
    assert h.counts == [1] * len(LATENCY_BOUNDS) + [0]
    past = _batched(np.array([LATENCY_BOUNDS[-1] + 1.0, 3e9]))
    assert past.counts[-1] == 2 and sum(past.counts) == 2
    assert past.max == 3e9


def test_batches_accumulate_like_one_loop():
    batches = _random_batches()
    h = _batched(*batches)
    ref = _looped([v for b in batches for v in b.tolist()])
    assert h.counts == ref.counts
    assert h.total == ref.total
    assert h.max == ref.max
    expected = 0.0
    for b in batches:
        expected += float(np.asarray(b, dtype=np.float64).sum())
    assert h.sum.hex() == expected.hex()


def test_empty_batch_changes_nothing():
    h = _batched(np.array([], dtype=np.float64))
    assert h == LatencyHistogram()
    h.record(12.0)
    before = h.copy()
    h.record_many(np.array([]))
    assert h == before
