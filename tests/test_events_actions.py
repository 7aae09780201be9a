"""Unit tests for the probe seam and the action helpers."""

import pytest

from repro.core import (
    Deliver,
    Discard,
    Participant,
    Probe,
    Ring,
    SendData,
    SendToken,
    Service,
    Token,
    deliveries,
    initial_token,
    sends,
    token_of,
)
from repro.core.messages import DataMessage


def msg(seq=1):
    return DataMessage(seq=seq, pid=1, round=1, service=Service.AGREED)


# ---------------------------------------------------------------------------
# Probe
# ---------------------------------------------------------------------------

class Broken(Probe):
    def message_sent(self, pid, message):
        raise RuntimeError("boom in message_sent")

    def data_received(self, pid, message):
        raise RuntimeError("boom in data_received")


def test_probe_exception_propagates():
    # A broken probe fails the run loudly rather than corrupting
    # measurements silently.
    participant = Participant(1, Ring.of((1, 2)))
    participant.probe = Broken()
    participant.submit(b"x")
    with pytest.raises(RuntimeError, match="message_sent"):
        participant.on_token(initial_token())
    with pytest.raises(RuntimeError, match="data_received"):
        participant.on_data(DataMessage(seq=5, pid=2, round=1,
                                        service=Service.AGREED))


def test_second_probe_install_raises():
    participant = Participant(1, Ring.of((1, 2)))
    first = Probe()
    participant.probe = first
    with pytest.raises(RuntimeError, match="already has a probe"):
        participant.probe = Probe()
    assert participant.probe is first
    # Detaching first makes room for another.
    participant.probe = None
    second = Probe()
    participant.probe = second
    assert participant.probe is second


# ---------------------------------------------------------------------------
# Action helpers
# ---------------------------------------------------------------------------

def test_deliveries_extracts_in_order():
    actions = [
        SendData(msg(1)),
        Deliver(msg(2)),
        SendToken(Token(), dst=2),
        Deliver(msg(3)),
        Discard(1),
    ]
    assert [m.seq for m in deliveries(actions)] == [2, 3]


def test_sends_extracts_data_only():
    actions = [
        SendData(msg(1)),
        SendToken(Token(), dst=2),
        SendData(msg(2), retransmission=True),
    ]
    assert [m.seq for m in sends(actions)] == [1, 2]


def test_token_of_requires_exactly_one():
    with pytest.raises(ValueError):
        token_of([SendData(msg(1))])
    with pytest.raises(ValueError):
        token_of([SendToken(Token(), 1), SendToken(Token(), 1)])
    token = Token(seq=5)
    assert token_of([SendToken(token, 1)]) is token


def test_deliver_exposes_service():
    safe = DataMessage(seq=1, pid=1, round=1, service=Service.SAFE)
    assert Deliver(safe).service is Service.SAFE


def test_actions_value_semantics():
    # Actions are value objects, immutable by convention (``frozen`` was
    # dropped for construction speed — one Deliver per delivered message
    # is built in the hot path); hash and equality stay field-based.
    a = SendData(msg(1))
    b = SendData(msg(1))
    assert a == b
    assert hash(a) == hash(b)
    assert a != SendData(msg(1), retransmission=True)
