"""The one executor of a participant's action list.

Every driver (packet-level sim, UDP emulation, loopback harness,
membership controller) runs the list a participant returns through
:func:`execute`, against a *port*: the driver's narrow view of its
transport.  The executor owns what the list's order means.  A run of
consecutive ``SendData`` is flushed before any other action and at the
end, so the token departs between the pre-token and post-token
multicasts (Section III).  With a jumbo cap each run is grouped by
:func:`repro.core.coalesce.coalesce`; without one each ``SendData`` is
its own datagram.  ``Discard`` needs no act: the participant's buffer
has already released the messages.

A port has:

* ``charge`` -- ``None``, or ``charge(kind, payload_bytes)`` giving the
  CPU pause to yield before an act of ``kind`` (``SendData``, per
  datagram with its summed payload; ``SendToken``; ``Deliver``);
* ``coalesce`` -- ``None``, or ``coalesce(sized)``: ``coalesce`` under
  the port's cap, returning ``(packets, datagram_bytes)`` groups;
* the size model ``header_bytes`` and ``sized(message)``, which gives
  ``(packet, body_bytes)``: the packet is what ``send_datagram`` gets
  back, and a plain datagram is ``header_bytes + body_bytes``;
* ``send_datagram(packets, datagram_bytes)`` (plain for one packet, a
  jumbo for more), ``send_token(action)``, ``deliver(message)``;
* ``now()``, the driver clock, read only when a probe is given.
"""

from __future__ import annotations

from .actions import Deliver, SendData, SendToken

__all__ = ["execute"]


def execute(actions, port, probe):
    """Run ``actions`` in order against ``port``, yielding its charges.

    Each charge is yielded before the act it pays for.  ``probe`` (or
    ``None``) gets the driver stamps, once per datagram right after the
    port sent it.  Every Deliver in the list was ordered when the
    participant returned it, so ``t_ordered`` is read once, up front.
    """
    charge = port.charge
    if probe is not None:
        t_ordered = port.now()
    run = None
    for action in actions:
        kind = type(action)
        if kind is SendData:
            if run is None:
                run = [action]
            else:
                run.append(action)
            continue
        if run is not None:
            yield from _send_run(run, port, charge, probe)
            run = None
        if kind is Deliver:
            message = action.message
            if charge is not None:
                yield charge(Deliver, message.payload_size)
            port.deliver(message)
            if probe is not None:
                probe.delivered(message, t_ordered, port.now())
        elif kind is SendToken:
            if charge is not None:
                yield charge(SendToken, 0)
            port.send_token(action)
    if run is not None:
        yield from _send_run(run, port, charge, probe)


def _send_run(run, port, charge, probe):
    sized = [port.sized(action.message) for action in run]
    if port.coalesce is None:
        header = port.header_bytes
        datagrams = [((packet,), header + body) for packet, body in sized]
    else:
        datagrams = port.coalesce(sized)
    start = 0
    for packets, size in datagrams:
        group = run[start:start + len(packets)]
        start += len(packets)
        if charge is not None:
            yield charge(SendData, sum(
                action.message.payload_size for action in group))
        port.send_datagram(packets, size)
        if probe is not None:
            jumbo = len(group) > 1
            if jumbo:
                probe.coalesced([action.message for action in group])
            for action in group:
                probe.multicast(action.message, action.retransmission, jumbo)
