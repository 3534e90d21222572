"""Machine set-up shares per-configuration tables but no run state.

A short run builds its machine from tables computed once per process: the
interconnect's ``mtype -> (flits, counter key)`` table per block size and
the Omega route memo per network size.  These tests pin that the sharing is
invisible: the tables follow the configuration, and a machine built after
others have run behaves exactly like the first machine of the process.
"""

import pytest

from repro import Machine, MachineConfig
from repro.network.message import Message, MessageType


def _small(**kw) -> MachineConfig:
    return MachineConfig(n_nodes=4, cache_blocks=64, cache_assoc=2, **kw)


def _run(machine: Machine) -> Machine:
    """Two nodes racing writes and reads on two shared words."""
    x, y = machine.alloc_word(), machine.alloc_word()

    def body(proc, mine, other):
        for v in range(1, 4):
            yield from proc.shared_write(mine, v)
            yield from proc.shared_read(other)

    machine.spawn(body(machine.processor(0), x, y), name="a")
    machine.spawn(body(machine.processor(3), y, x), name="b")
    machine.run_all()
    return machine


@pytest.mark.parametrize("words", [2, 4, 8])
def test_block_messages_cost_their_own_block_size(words):
    m = Machine(_small(words_per_block=words))
    m.net.send(Message(0, 1, MessageType.DATA_BLOCK))
    m.net.send(Message(0, 1, MessageType.INV))
    assert m.net.stats.counters["flits"] == (1 + words) + 1


def test_flit_tables_follow_the_block_size():
    a, b, a2 = (Machine(_small(words_per_block=w)) for w in (4, 8, 4))
    assert a.net._mtype_info is a2.net._mtype_info
    assert a.net._mtype_info is not b.net._mtype_info
    assert a.net._mtype_info[MessageType.DATA_BLOCK][0] == 5
    assert b.net._mtype_info[MessageType.DATA_BLOCK][0] == 9


@pytest.mark.parametrize("protocol", Machine.PROTOCOLS)
def test_no_counter_or_route_state_leaks_between_machines(protocol):
    first = _run(Machine(_small(seed=5), protocol=protocol))
    idle = Machine(_small(seed=5), protocol=protocol)
    second = _run(Machine(_small(seed=5), protocol=protocol))
    assert first.metrics().messages > 0
    # The idle machine saw none of its neighbours' traffic.
    assert idle.net.stats.counters.as_dict() == {}
    assert all(n.stats.counters.as_dict() == {} for n in idle.nodes)
    assert all(n.cache.stats.counters.as_dict() == {} for n in idle.nodes)
    assert idle.metrics().messages == 0
    # A machine built after one has run (shared tables warm) runs the same.
    assert second.metrics().to_json() == first.metrics().to_json()
    assert second.sim.now == first.sim.now
    assert second.sim.events_processed == first.sim.events_processed
