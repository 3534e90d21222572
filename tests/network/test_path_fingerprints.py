"""Pins on the per-message path: every topology, protocol and hang report.

The interconnect's send/route/deliver path and the node and home dispatch
behind it are tuned for host speed (integer channel keys, a flat Omega
wire list, plain counter increments, one pre-bound arrival callback).
None of that may move a simulated cycle or change what a reader sees.
These pins were recorded before that tuning; each digest covers the full
``RunMetrics.to_json()`` document in its key order (so ``msg_by_type``'s
first-send order counts), ``mean_net_latency`` included, plus the
topology's ``queueing`` tally.  The hang pins cover the channel state a
:class:`~repro.faults.diagnosis.HangDiagnosis` reports: same channels,
same counts, same order.
"""

import hashlib
import json

import pytest

from repro.faults.diagnosis import diagnose_machine
from repro.faults.plan import FaultSpec
from repro.scenarios import scenario_point
from repro.sync.base import CBLLock
from repro.system.config import MachineConfig
from repro.system.machine import Machine
from repro.workloads.syncmodel import SyncModelParams, SyncModelWorkload

#: protocol -> (lock scheme, consistency model) for the pinned workload.
PROTOCOLS = {"wbi": ("tts", "sc"), "primitives": ("cbl", "bc"), "writeupdate": ("ts", "sc")}

#: (network, protocol) -> (messages, completion_time, digest).
PINS = {
    ("omega", "wbi"): (600, 1334, "c8a190243ef2f80b"),
    ("omega", "primitives"): (365, 696, "13cf953c7614f6ce"),
    ("omega", "writeupdate"): (717, 1297, "4ec2855ce5d7ef78"),
    ("omega-buffered", "wbi"): (602, 1292, "a963ad9bddf353c7"),
    ("omega-buffered", "primitives"): (365, 682, "010948ba47a9bfc0"),
    ("omega-buffered", "writeupdate"): (718, 1262, "594a31c7894b3052"),
    ("bus", "wbi"): (600, 1276, "4a5ef97ca2512bfb"),
    ("bus", "primitives"): (365, 729, "6e6f3ff93d92ee50"),
    ("bus", "writeupdate"): (712, 1226, "576af214838c5995"),
    ("crossbar", "wbi"): (592, 854, "edebcf66b3f681be"),
    ("crossbar", "primitives"): (365, 506, "f6e16dc5aabb12d9"),
    ("crossbar", "writeupdate"): (717, 932, "764fdad810d6e9f7"),
    ("mesh", "wbi"): (580, 917, "a3f7c71fd2a84c14"),
    ("mesh", "primitives"): (365, 560, "4b98b0ce2a971cce"),
    ("mesh", "writeupdate"): (714, 1035, "d216195430360602"),
}


def _digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()[:16]


@pytest.mark.parametrize("network, protocol", sorted(PINS))
def test_run_metrics_pinned(network, protocol):
    scheme, consistency = PROTOCOLS[protocol]
    cfg = MachineConfig(n_nodes=4, cache_blocks=64, cache_assoc=2, seed=7, network=network)
    machine = Machine(cfg, protocol=protocol)
    params = SyncModelParams(
        tasks_per_node=3, grain_size=40, shared_ratio=0.3, read_ratio=0.6, lock_ratio=0.7
    )
    SyncModelWorkload(machine, params, lock_scheme=scheme, consistency=consistency).run()
    queueing = machine.net.stats.tally("queueing")
    doc = {
        "metrics": machine.metrics().to_json(),
        "queueing": [queueing.n, queueing.mean, queueing.min, queueing.max],
    }
    # The buffered Omega queues in its switch processes, not analytically.
    assert (queueing.n > 0) == (network != "omega-buffered")
    got = (doc["metrics"]["messages"], doc["metrics"]["completion_time"], _digest(doc))
    assert got == PINS[network, protocol]


def test_overbudget_hang_diagnosis_pinned():
    """The denial-of-progress over-budget wedge reports the same hang."""
    doc = scenario_point("denial-of-progress-overbudget", 17, attack=True)
    assert doc["hang"]["reason"] == "quiescent"
    assert _digest(doc["hang"]) == "36c76e947a20bf94"


def test_targeted_drop_channel_state_pinned():
    """Mid-run diagnoses of a targeted-drop run with delay spikes: the
    in-flight and FIFO-held channels keep their (src, dst) keys and their
    first-send order."""
    cfg = MachineConfig(n_nodes=8, cache_blocks=64, cache_assoc=2, seed=5)
    faults = FaultSpec(
        targeted=(("LOCK_GRANT", 1, 2), ("UNLOCK_RELEASE", 0, 1)),
        spike_prob=0.3,
        spike_cycles=40,
        seed=3,
    )
    # Pinned on the default fast calendar: the heap referee reaches the same
    # states but can stamp an equal drop time as 59 where fast says 59.0.
    machine = Machine(cfg, protocol="primitives", faults=faults, calendar="fast")
    lock = CBLLock(machine)

    def worker(proc):
        for _ in range(4):
            yield from proc.acquire(lock)
            v = yield from lock.read_data(proc, 0)
            yield from lock.write_data(proc, 0, v + 1)
            yield from proc.compute(10)
            yield from proc.release(lock)

    for i in range(3):
        machine.spawn(worker(machine.processor(i)), name=f"w{i}")
    snapshots = {}
    for t in range(25, 2000, 25):
        machine.sim.run(until=t)
        snapshots[t] = diagnose_machine(machine, "probe").to_dict()
    # Dict order is first-send order, not channel-number order.
    assert list(snapshots[50]["in_flight"].items()) == [("2->0", 2), ("0->1", 1)]
    assert snapshots[1450]["held"] == {"0->0": 1}
    assert snapshots[1675]["held"] == {"0->2": 1}
    assert snapshots[1750]["in_flight"] == {"0->1": 2}
    assert snapshots[1750]["held"] == {"0->1": 1}
    assert _digest(snapshots) == "ade645b8fafd8e0b"
