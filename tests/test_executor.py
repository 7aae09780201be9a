"""The shared action executor, driven through a recording fake port."""

from __future__ import annotations

from repro.core import (
    DataMessage,
    Deliver,
    Discard,
    Probe,
    SendData,
    SendToken,
    Service,
    initial_token,
)
from repro.core.coalesce import coalesce
from repro.core.executor import execute

HEADER = 10


def data(seq, size=100):
    return DataMessage(seq=seq, pid=1, round=1, service=Service.AGREED,
                       payload_size=size)


class FakePort:
    """Records every act and charge in one log, in order."""

    header_bytes = HEADER

    def __init__(self, cap=None, charges=False):
        self.log = []
        self.clock = 0.0
        self.coalesce = None if cap is None else (
            lambda sized: coalesce(sized, cap, HEADER))
        self.charge = self._charge if charges else None

    def _charge(self, kind, payload_bytes):
        pause = ("charge", kind.__name__, payload_bytes)
        self.log.append(pause)
        return pause

    def sized(self, message):
        return message, message.payload_size

    def send_datagram(self, packets, size):
        self.log.append(("datagram", tuple(m.seq for m in packets), size))

    def send_token(self, action):
        self.log.append(("token", action.dst))

    def deliver(self, message):
        self.log.append(("deliver", message.seq))

    def now(self):
        self.clock += 1.0
        return self.clock


class RecordingProbe(Probe):
    __slots__ = ("log",)

    def __init__(self, log):
        self.log = log

    def multicast(self, message, retransmission, coalesced):
        self.log.append(("multicast", message.seq, retransmission, coalesced))

    def coalesced(self, messages):
        self.log.append(("coalesced", tuple(m.seq for m in messages)))

    def delivered(self, message, t_ordered, t_delivered):
        self.log.append(("delivered", message.seq, t_ordered, t_delivered))


def run(actions, port, probe=None):
    """Drain the executor, logging each yielded pause as it arrives."""
    for pause in execute(actions, port, probe):
        port.log.append(("yield", pause))
    return port.log


def acts(log, *kinds):
    return [entry for entry in log if entry[0] in kinds]


TOKEN = SendToken(initial_token(), dst=2)


def test_token_stays_between_pre_and_post_token_runs():
    actions = [SendData(data(1)), SendData(data(2)), TOKEN,
               SendData(data(3)), Deliver(data(1))]
    for cap in (None, 8850):
        log = run(actions, FakePort(cap=cap))
        kinds = [entry[0] for entry in log]
        token_at = kinds.index("token")
        before = [e for e in log[:token_at] if e[0] == "datagram"]
        after = [e for e in log[token_at:] if e[0] == "datagram"]
        assert sum(len(e[1]) for e in before) == 2
        assert [e[1] for e in after] == [(3,)]
        assert kinds[-1] == "deliver"


def test_run_over_the_cap_splits_into_groups_in_order():
    # Entry framing is 5 B and the count prefix 4 B: three 100-B bodies
    # fit 10 + 4 + 3 * 105 = 329 B, a fourth would not under a 400-B cap.
    actions = [SendData(data(seq)) for seq in range(1, 8)]
    log = run(actions, FakePort(cap=400))
    assert acts(log, "datagram") == [
        ("datagram", (1, 2, 3), 329),
        ("datagram", (4, 5, 6), 329),
        ("datagram", (7,), HEADER + 100),
    ]


def test_lone_packet_goes_plain_and_no_cap_sends_one_datagram_each():
    log = run([SendData(data(1)), TOKEN], FakePort(cap=8850))
    assert acts(log, "datagram") == [("datagram", (1,), HEADER + 100)]
    actions = [SendData(data(seq, size=seq)) for seq in range(1, 4)]
    log = run(actions, FakePort())
    assert acts(log, "datagram") == [
        ("datagram", (1,), HEADER + 1),
        ("datagram", (2,), HEADER + 2),
        ("datagram", (3,), HEADER + 3),
    ]


def test_every_charge_is_yielded_before_its_act():
    actions = [SendData(data(1, size=100)), SendData(data(2, size=50)),
               TOKEN, SendData(data(3, size=7)), Deliver(data(1, size=100)),
               Discard(1)]
    log = run(actions, FakePort(cap=8850, charges=True))
    assert log == [
        ("charge", "SendData", 150),
        ("yield", ("charge", "SendData", 150)),
        ("datagram", (1, 2), HEADER + 4 + 5 + 100 + 5 + 50),
        ("charge", "SendToken", 0),
        ("yield", ("charge", "SendToken", 0)),
        ("token", 2),
        ("charge", "SendData", 7),
        ("yield", ("charge", "SendData", 7)),
        ("datagram", (3,), HEADER + 7),
        ("charge", "Deliver", 100),
        ("yield", ("charge", "Deliver", 100)),
        ("deliver", 1),
    ]


def test_discard_is_ignored():
    port = FakePort(charges=True)
    assert run([Discard(5), Discard(9)], port) == []


def test_probe_stamps_once_per_datagram_with_each_flag():
    actions = [SendData(data(1), retransmission=True), SendData(data(2)),
               SendData(data(3), retransmission=True), TOKEN,
               SendData(data(4)), Deliver(data(1)), Deliver(data(2))]
    port = FakePort(cap=HEADER + 4 + 2 * 105)
    log = run(actions, port, RecordingProbe(port.log))
    assert [e for e in log if e[0] != "deliver"] == [
        ("datagram", (1, 2), HEADER + 4 + 2 * 105),
        ("coalesced", (1, 2)),
        ("multicast", 1, True, True),
        ("multicast", 2, False, True),
        ("datagram", (3,), HEADER + 100),
        ("multicast", 3, True, False),
        ("token", 2),
        ("datagram", (4,), HEADER + 100),
        ("multicast", 4, False, False),
        # t_ordered is read once, when the list starts; t_delivered
        # after each delivery.
        ("delivered", 1, 1.0, 2.0),
        ("delivered", 2, 1.0, 3.0),
    ]
