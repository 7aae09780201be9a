"""Tests for the Totem-style membership algorithm and EVS semantics."""

import pytest

from repro.core import DataMessage, ProtocolConfig, Service
from repro.evs import ConfigChange, Configuration, ConfigurationKind, EVSChecker
from repro.harness.evsnet import EVSNetwork
from repro.membership import State
from repro.membership.controller import make_ring_id, ring_id_seq


def converged_net(pids, **kw):
    net = EVSNetwork(pids, **kw)
    net.run_until_converged()
    return net


def delivered(net, pid):
    return [(m.ring_id, m.seq, m.payload) for m in net.processes[pid].delivered_messages()]


def configs(net, pid):
    return [
        (c.kind, c.ring_id, c.members) for c in net.processes[pid].configurations()
    ]


# ---------------------------------------------------------------------------
# Ring-id minting
# ---------------------------------------------------------------------------

def test_ring_ids_unique_across_partitions():
    # Two partitions reconfiguring concurrently from the same history
    # must mint different ids (different representatives).
    a = make_ring_id(2, 1)
    b = make_ring_id(2, 3)
    assert a != b
    assert ring_id_seq(a) == ring_id_seq(b) == 2


# ---------------------------------------------------------------------------
# Formation
# ---------------------------------------------------------------------------

def test_cold_start_forms_single_ring():
    net = converged_net([1, 2, 3, 4])
    rings = {net.processes[p].ring.members for p in (1, 2, 3, 4)}
    assert rings == {(1, 2, 3, 4)}
    ids = {net.processes[p].ring.ring_id for p in (1, 2, 3, 4)}
    assert len(ids) == 1


def test_all_processes_deliver_the_new_configuration():
    net = converged_net([1, 2, 3])
    for pid in (1, 2, 3):
        final = net.processes[pid].current_configuration
        assert final.is_regular
        assert final.members == (1, 2, 3)


def test_single_process_stays_singleton():
    net = EVSNetwork([7])
    net.run_quiet(100)
    process = net.processes[7]
    assert process.state is State.OPERATIONAL
    assert process.ring.members == (7,)


def test_messages_ordered_after_formation():
    net = converged_net([1, 2, 3, 4])
    for pid in (1, 2, 3, 4):
        for i in range(6):
            net.submit(pid, (pid, i), Service.SAFE if i % 3 == 0 else Service.AGREED)
    net.run_until_delivered(24)
    logs = {p: delivered(net, p) for p in (1, 2, 3, 4)}
    assert all(log == logs[1] for log in logs.values())
    assert len(logs[1]) == 24


# ---------------------------------------------------------------------------
# Crash
# ---------------------------------------------------------------------------

def test_crash_detected_and_ring_reformed():
    net = converged_net([1, 2, 3, 4])
    net.crash(3)
    net.run_until_converged()
    for pid in (1, 2, 4):
        assert net.processes[pid].ring.members == (1, 2, 4)


def test_progress_after_crash():
    net = converged_net([1, 2, 3])
    net.crash(2)
    net.run_until_converged()
    net.submit(1, "after-crash", Service.SAFE)
    net.run_quiet(300)
    for pid in (1, 3):
        assert "after-crash" in [m.payload for m in net.processes[pid].delivered_messages()]


def test_transitional_configuration_on_crash():
    net = converged_net([1, 2, 3])
    old_ring = net.processes[1].ring.ring_id
    net.crash(3)
    net.run_until_converged()
    sequence = configs(net, 1)
    transitional = [c for c in sequence if c[0] is ConfigurationKind.TRANSITIONAL
                    and c[1] == old_ring]
    assert transitional == [(ConfigurationKind.TRANSITIONAL, old_ring, (1, 2))]


def test_crash_of_representative():
    net = converged_net([1, 2, 3, 4])
    net.crash(1)  # lowest id = representative of the ring
    net.run_until_converged()
    for pid in (2, 3, 4):
        assert net.processes[pid].ring.members == (2, 3, 4)


def test_cascading_crashes():
    net = converged_net([1, 2, 3, 4, 5])
    net.crash(2)
    net.run_until_converged()
    net.crash(4)
    net.run_until_converged()
    for pid in (1, 3, 5):
        assert net.processes[pid].ring.members == (1, 3, 5)


# ---------------------------------------------------------------------------
# Partition and merge
# ---------------------------------------------------------------------------

def test_partition_forms_two_rings():
    net = converged_net([1, 2, 3, 4])
    net.set_partition({1, 2}, {3, 4})
    net.run_until_converged()
    assert net.processes[1].ring.members == (1, 2)
    assert net.processes[4].ring.members == (3, 4)
    assert net.processes[1].ring.ring_id != net.processes[4].ring.ring_id


def test_both_partitions_make_progress():
    net = converged_net([1, 2, 3, 4])
    net.set_partition({1, 2}, {3, 4})
    net.run_until_converged()
    net.submit(1, "left")
    net.submit(3, "right")
    net.run_quiet(400)
    left = [m.payload for m in net.processes[2].delivered_messages()]
    right = [m.payload for m in net.processes[4].delivered_messages()]
    assert "left" in left and "left" not in right
    assert "right" in right and "right" not in left


def test_merge_after_heal():
    net = converged_net([1, 2, 3, 4])
    net.set_partition({1, 2}, {3, 4})
    net.run_until_converged()
    net.heal()
    net.run_until_converged()
    members = {net.processes[p].ring.members for p in (1, 2, 3, 4)}
    assert members == {(1, 2, 3, 4)}


def test_merged_ring_orders_messages_again():
    net = converged_net([1, 2, 3, 4])
    net.set_partition({1, 2}, {3, 4})
    net.run_until_converged()
    net.heal()
    net.run_until_converged()
    before = {p: len(net.processes[p].delivered_messages()) for p in (1, 2, 3, 4)}
    for pid in (1, 2, 3, 4):
        net.submit(pid, ("merged", pid))
    net.run_quiet(600)
    for pid in (1, 2, 3, 4):
        new = net.processes[pid].delivered_messages()[before[pid]:]
        assert len(new) == 4
    tails = {
        p: [m.payload for m in net.processes[p].delivered_messages()[-4:]]
        for p in (1, 2, 3, 4)
    }
    assert all(t == tails[1] for t in tails.values())


def test_asymmetric_partition_isolates_singleton():
    net = converged_net([1, 2, 3])
    net.set_partition({1, 2})  # 3 is implicitly isolated
    net.run_until_converged()
    assert net.processes[3].ring.members == (3,)
    assert net.processes[1].ring.members == (1, 2)


# ---------------------------------------------------------------------------
# Virtual synchrony: message recovery across view changes
# ---------------------------------------------------------------------------

def test_messages_in_flight_survive_view_change():
    # Submit messages, then crash a node BEFORE they are all delivered;
    # the survivors must still agree on what was delivered.
    net = converged_net([1, 2, 3, 4])
    for pid in (1, 2, 3, 4):
        for i in range(10):
            net.submit(pid, (pid, i))
    # A few steps only: messages are mid-flight.
    net.run_quiet(6)
    net.crash(4)
    net.run_until_converged()
    net.run_quiet(300)
    logs = {p: delivered(net, p) for p in (1, 2, 3)}
    assert logs[1] == logs[2] == logs[3]
    survivors_payloads = [payload for (_r, _s, payload) in logs[1]]
    # Everything the survivors submitted must eventually deliver
    # (self-delivery under EVS for processes that stay).
    for pid in (1, 2, 3):
        for i in range(10):
            assert (pid, i) in survivors_payloads


def test_virtual_synchrony_same_deliveries_per_configuration():
    # Members that move together through view changes deliver the same
    # messages in the same configurations.
    net = converged_net([1, 2, 3, 4])
    for pid in (1, 2, 3, 4):
        for i in range(8):
            net.submit(pid, (pid, i), Service.SAFE if i % 2 else Service.AGREED)
    net.run_quiet(5)
    net.set_partition({1, 2}, {3, 4})
    net.run_until_converged()
    net.run_quiet(400)
    # Within each partition the event logs (messages + config changes)
    # must be identical from the first configuration the members shared
    # (their boot singletons necessarily differ).
    for group in ((1, 2), (3, 4)):
        logs = {}
        for p in group:
            events = [
                e if not isinstance(e, ConfigChange) else (e.configuration.kind,
                                                           e.configuration.members)
                for e in net.processes[p].app_log
            ]
            shared = (ConfigurationKind.REGULAR, (1, 2, 3, 4))
            logs[p] = events[events.index(shared):]
        a, b = (logs[p] for p in group)
        assert a == b, "virtual synchrony violated within %r" % (group,)


def test_old_ring_data_arriving_during_recovery_is_not_delivered():
    # Recovery floods each member's old-ring messages once, on entering
    # RECOVER, and every member cuts its regular configuration from that
    # union.  A late old-ring message one member alone still delivers
    # would sit in its regular configuration but in no other member's.
    net = converged_net([1, 2, 3])
    net.submit(1, "before")
    net.run_quiet(100)
    old_ring = net.processes[2].ring.ring_id
    net.crash(3)
    for _i in range(2000):
        net.step()
        if net.processes[2].state is State.RECOVER:
            break
    assert net.processes[1].state is net.processes[2].state is State.RECOVER
    late = DataMessage(seq=net.processes[2].participant.delivered_upto + 1,
                       pid=3, round=99, service=Service.AGREED, payload="late")
    assert net.processes[2].handle_data(old_ring, late, src=3) == []
    net.run_until_converged()
    net.run_quiet(100)
    for pid in (1, 2):
        payloads = [m.payload for m in net.processes[pid].delivered_messages()]
        assert "late" not in payloads
    checker = EVSChecker()
    checker.check_logs(net.logs())
    checker.assert_ok()


def test_transitional_messages_flagged():
    # Messages recovered past a safe bound are delivered with the
    # transitional flag set.
    net = converged_net([1, 2, 3])
    for i in range(6):
        net.submit(1, ("safe", i), Service.SAFE)
    net.run_quiet(4)  # not yet stable
    net.crash(3)
    net.run_until_converged()
    net.run_quiet(300)
    messages = net.processes[1].delivered_messages()
    safe_msgs = [m for m in messages if m.payload[0] == "safe"]
    assert len(safe_msgs) == 6
    assert any(m.transitional for m in safe_msgs) or all(
        not m.transitional for m in safe_msgs
    )
    # Survivors agree on the flags.
    other = [m for m in net.processes[2].delivered_messages() if m.payload[0] == "safe"]
    assert [(m.seq, m.transitional) for m in safe_msgs] == [
        (m.seq, m.transitional) for m in other
    ]


def test_no_cross_partition_message_leak():
    net = converged_net([1, 2, 3, 4])
    net.set_partition({1, 2}, {3, 4})
    net.run_until_converged()
    net.submit(1, "secret-left")
    net.run_quiet(300)
    for pid in (3, 4):
        payloads = [m.payload for m in net.processes[pid].delivered_messages()]
        assert "secret-left" not in payloads


def test_configuration_ids_strictly_increase_per_process():
    net = converged_net([1, 2, 3, 4])
    net.set_partition({1, 2}, {3, 4})
    net.run_until_converged()
    net.heal()
    net.run_until_converged()
    for pid in (1, 2, 3, 4):
        regulars = [
            c.ring_id for c in net.processes[pid].configurations() if c.is_regular
        ]
        seqs = [ring_id_seq(r) for r in regulars]
        assert seqs == sorted(seqs)
        assert len(set(regulars)) == len(regulars)
