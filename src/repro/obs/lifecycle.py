"""Causal message-lifecycle tracing.

A :class:`LifecycleTracer` stamps each message's journey through named
stages into a flat record stream (:mod:`repro.wire.tracefmt`).  The
same tracer attaches to the discrete-event sim (``SimCluster
.attach_tracer()``, sim-time clock) and the threaded UDP emulation
(``EmulatedRing.attach_tracer()``, wall-clock), so one analyzer —
``python -m repro.cli trace-analyze`` — decomposes latency identically
in both worlds.

Stage taxonomy (the paper's Section III message path)::

    id  stage            stamped at                        by probe hook
    0   originated       application submit time           message_sent (retroactive)
    1   packed           protocol packet built from queue  message_sent
    2   coalesced        message entered a jumbo datagram  coalesced (driver)
    3   token_granted    initiator's token handling        message_sent
    4   multicast        NIC accepted the datagram         multicast (driver)
    5   received         first arrival at a remote node    data_received
    6   ordered          delivery engine released it       delivered (driver)
    7   delivered_agreed driver executed Agreed delivery   delivered (driver)
    8   delivered_safe   driver executed Safe delivery     delivered (driver)
    9   token_handled    any node handled the token        token_handled

(``ordered`` and ``delivered_*`` come from one driver hook for speed —
they are the two highest-volume stages, one pair per delivered message
per node.  The shared action executor (``repro.core.executor``)
captures the instant the participant returned the action list and,
after each delivery executes, makes a single hook
call that packs both records at once: one Python call, one struct pack
and one buffer append for the pair.)

Record fields: ``node`` is the observing pid, ``origin``/``seq``
identify the message ((origin, seq) is unique per run), and for
``token_handled`` records ``seq`` carries the token *hop* (round id)
and ``origin`` is -1.  ``aux`` is a stage-specific flag word:

* ``multicast``: bit 0 = post-token send, bit 1 = retransmission,
  bit 2 = part of a coalesced jumbo datagram.
* ``token_granted``: bit 0 = post-token (the message sits in the
  accelerated window).
* ``ordered``: bit 0 = Safe service.
* ``packed``: the number of application messages in the packet.
* ``token_handled``: the flow-control budget granted this handling
  (``allowed_new``) — trace-analyze's overlap denominator.

``originated`` is stamped *retroactively*: when the initiator's
``message_sent`` hook fires, the stamp reuses ``message.submitted_at``
(the driver clock at application submit).  The submit hot path itself
carries zero tracing cost, and the originated→delivered telescoping sum
equals the latency recorder's end-to-end sample exactly.

Cost model: the tracer is one :class:`~repro.core.probe.Probe` per
node, installed on both the participant and its driver.  With no
tracer attached every ``probe`` is ``None``, so each hook site costs
one ``is not None`` test on a path that already branches per action.
With a tracer, each stamp is one closure call: the hooks are closures
whose bindings are default arguments, so a stamp is one clock call,
one C-level pack and one bytearray extend.
"""

from __future__ import annotations

import functools
import struct
from typing import Callable, List

from ..core import Service
from ..core.packing import PackedPayload
from ..core.probe import Probe
from ..wire import tracefmt
from ..wire.tracefmt import (
    CLOCK_SIM,
    CLOCK_WALL,
    NO_PID,
    RECORD_SIZE,
    RECORD_STRUCT,
    WORLD_EMULATION,
    WORLD_SIM,
    TraceRecord,
    TraceWriter,
)

__all__ = [
    "LifecycleTracer",
    "STAGE_ORIGINATED",
    "STAGE_PACKED",
    "STAGE_COALESCED",
    "STAGE_TOKEN_GRANTED",
    "STAGE_MULTICAST",
    "STAGE_RECEIVED",
    "STAGE_ORDERED",
    "STAGE_DELIVERED_AGREED",
    "STAGE_DELIVERED_SAFE",
    "STAGE_TOKEN_HANDLED",
    "STAGE_NAMES",
    "AUX_POST_TOKEN",
    "AUX_RETRANSMISSION",
    "AUX_COALESCED",
    "AUX_SAFE",
]

STAGE_ORIGINATED = 0
STAGE_PACKED = 1
STAGE_COALESCED = 2
STAGE_TOKEN_GRANTED = 3
STAGE_MULTICAST = 4
STAGE_RECEIVED = 5
STAGE_ORDERED = 6
STAGE_DELIVERED_AGREED = 7
STAGE_DELIVERED_SAFE = 8
STAGE_TOKEN_HANDLED = 9

STAGE_NAMES = {
    STAGE_ORIGINATED: "originated",
    STAGE_PACKED: "packed",
    STAGE_COALESCED: "coalesced",
    STAGE_TOKEN_GRANTED: "token_granted",
    STAGE_MULTICAST: "multicast",
    STAGE_RECEIVED: "received",
    STAGE_ORDERED: "ordered",
    STAGE_DELIVERED_AGREED: "delivered_agreed",
    STAGE_DELIVERED_SAFE: "delivered_safe",
    STAGE_TOKEN_HANDLED: "token_handled",
}

AUX_POST_TOKEN = 1
AUX_RETRANSMISSION = 2
AUX_COALESCED = 4
#: ``ordered`` aux: the message asked for the Safe service.
AUX_SAFE = 1

#: Two consecutive records packed in one struct call — the
#: ordered/delivered pair every delivery emits.  Kept in lockstep with
#: ``tracefmt.RECORD_STRUCT``; the buffer stays a plain record stream.
_PAIR_STRUCT = struct.Struct("<dBBiiIIdBBiiII")
assert _PAIR_STRUCT.size == 2 * RECORD_SIZE


class _NodeProbe(Probe):
    """One node's stamping probe, built by :meth:`LifecycleTracer.node_probe`.

    The hooks it implements are instance slots holding closures, not
    methods, so a stamp reads its bindings as closure defaults instead
    of instance attributes.  A slot shadows the base class's no-op
    method of the same name; the hooks it does not stamp (the
    retransmission pair) stay no-ops.
    """

    __slots__ = ("message_sent", "data_received", "token_handled",
                 "multicast", "coalesced", "delivered")


class LifecycleTracer:
    """Collects lifecycle stamps in memory; write out after the run.

    Build one via ``SimCluster.attach_tracer()`` /
    ``EmulatedRing.attach_tracer()`` rather than by hand — the drivers
    know their own clock and hook points.
    """

    __slots__ = ("_clock", "epoch", "world", "clock_kind", "label", "_buf")

    def __init__(
        self,
        clock: Callable[[], float],
        world: int = WORLD_SIM,
        clock_kind: int = CLOCK_SIM,
        label: str = "",
        epoch: float = 0.0,
    ) -> None:
        self._clock = clock
        #: Subtracted from driver-passed raw timestamps (the delivery
        #: hook takes the driver's native clock values; the emulation
        #: driver hands over raw ``time.monotonic()`` readings).
        self.epoch = epoch
        self.world = world
        self.clock_kind = clock_kind
        self.label = label
        #: Stamps in event order, packed with ``tracefmt.RECORD_STRUCT``.
        #: A bytearray, not a list of tuples, on purpose: a long traced
        #: run accumulates 10^5..10^6 stamps, and GC-tracked tuples make
        #: every full collection rescan the whole trace — measured at
        #: 3x the entire direct stamping cost on the sim-mix benchmark.
        #: Packed bytes never enter the cyclic GC.  (``bytearray
        #: .extend`` holds the GIL, so emulation threads may stamp
        #: concurrently; the stream is just not globally time-sorted.)
        self._buf = bytearray()

    # -- stamping ------------------------------------------------------------

    def stamp(
        self, stage: int, node: int, origin: int, seq: int, aux: int = 0
    ) -> None:
        self.stamp_at(self._clock(), stage, node, origin, seq, aux)

    def stamp_at(
        self, t: float, stage: int, node: int, origin: int, seq: int,
        aux: int = 0,
    ) -> None:
        self._buf.extend(RECORD_STRUCT.pack(
            t, stage, 0, node, origin,
            seq & 0xFFFFFFFF, aux & 0xFFFFFFFF,
        ))

    # -- the per-node probe -------------------------------------------------

    def node_probe(self, pid: int) -> Probe:
        """The probe stamping every stage observed at node ``pid``.

        Install it as both the participant's and the driver's probe.
        The participant hooks stamp ``originated`` (retroactive from
        ``submitted_at``), ``packed``, ``token_granted``, ``received``
        and ``token_handled``; the driver hooks stamp ``coalesced``,
        ``multicast``, ``ordered`` and ``delivered_*``, because only the
        driver knows when the NIC/socket and the delivery actually run.
        """
        extend = self._buf.extend
        pack = RECORD_STRUCT.pack
        clock = self._clock
        probe = _NodeProbe()

        # Hot closures: every binding is a default argument, so each
        # stamp costs one clock call, one C-level pack and one
        # bytearray extend — no GC-tracked allocation survives.

        def message_sent(pid, message, _extend=extend, _pack=pack,
                         _clock=clock, _packed=PackedPayload) -> None:
            now = _clock()
            payload = message.payload
            if type(payload) is _packed:
                submitted = min(
                    (item.submitted_at for item in payload.items
                     if item.submitted_at is not None),
                    default=None,
                )
                if submitted is not None:
                    _extend(_pack(
                        submitted, STAGE_ORIGINATED, 0,
                        pid, pid, message.seq, 0,
                    ))
                _extend(_pack(
                    now, STAGE_PACKED, 0, pid, pid, message.seq,
                    len(payload.items),
                ))
            elif message.submitted_at is not None:
                _extend(_pack(
                    message.submitted_at, STAGE_ORIGINATED, 0,
                    pid, pid, message.seq, 0,
                ))
            _extend(_pack(
                now, STAGE_TOKEN_GRANTED, 0, pid, pid, message.seq,
                AUX_POST_TOKEN if message.sent_after_token else 0,
            ))

        def data_received(pid, message, _extend=extend, _pack=pack,
                          _clock=clock, _stage=STAGE_RECEIVED) -> None:
            _extend(_pack(
                _clock(), _stage, 0, pid, message.pid, message.seq, 0,
            ))

        def token_handled(pid, received, sent, allowed_new, retransmissions,
                          _extend=extend, _pack=pack, _clock=clock,
                          _stage=STAGE_TOKEN_HANDLED,
                          _no_pid=NO_PID) -> None:
            _extend(_pack(
                _clock(), _stage, 0, pid, _no_pid, sent.hop, allowed_new,
            ))

        def multicast(message, retransmission, coalesced, _extend=extend,
                      _pack=pack, _clock=clock, _stage=STAGE_MULTICAST,
                      _pid=pid) -> None:
            aux = 0
            if message.sent_after_token:
                aux |= AUX_POST_TOKEN
            if retransmission:
                aux |= AUX_RETRANSMISSION
            if coalesced:
                aux |= AUX_COALESCED
            _extend(_pack(
                _clock(), _stage, 0, _pid, message.pid, message.seq, aux,
            ))

        def coalesced(messages, _extend=extend, _pack=pack, _clock=clock,
                      _stage=STAGE_COALESCED, _pid=pid) -> None:
            now = _clock()
            count = len(messages)
            for message in messages:
                _extend(_pack(
                    now, _stage, 0, _pid, message.pid, message.seq, count,
                ))

        # ``delivered`` gets raw driver-clock readings and subtracts the
        # tracer epoch; the pair is packed as one ``ordered`` plus one
        # ``delivered_*`` record in a single struct call.
        if self.epoch:
            def delivered(message, t_ordered, t_delivered, _extend=extend,
                          _pack=_PAIR_STRUCT.pack, _t0=self.epoch, _pid=pid,
                          _ordered=STAGE_ORDERED,
                          _agreed=STAGE_DELIVERED_AGREED,
                          _safe_stage=STAGE_DELIVERED_SAFE,
                          _safe=Service.SAFE) -> None:
                origin = message.pid
                seq = message.seq
                if message.service is _safe:
                    _extend(_pack(
                        t_ordered - _t0, _ordered, 0, _pid, origin, seq,
                        AUX_SAFE,
                        t_delivered - _t0, _safe_stage, 0, _pid, origin,
                        seq, 0,
                    ))
                else:
                    _extend(_pack(
                        t_ordered - _t0, _ordered, 0, _pid, origin, seq, 0,
                        t_delivered - _t0, _agreed, 0, _pid, origin, seq, 0,
                    ))
        else:
            # Epoch-zero specialization (the sim clock): skip the two
            # float subtractions — each allocates — on the densest hook.
            def delivered(message, t_ordered, t_delivered, _extend=extend,
                          _pack=_PAIR_STRUCT.pack, _pid=pid,
                          _ordered=STAGE_ORDERED,
                          _agreed=STAGE_DELIVERED_AGREED,
                          _safe_stage=STAGE_DELIVERED_SAFE,
                          _safe=Service.SAFE) -> None:
                origin = message.pid
                seq = message.seq
                if message.service is _safe:
                    _extend(_pack(
                        t_ordered, _ordered, 0, _pid, origin, seq, AUX_SAFE,
                        t_delivered, _safe_stage, 0, _pid, origin, seq, 0,
                    ))
                else:
                    _extend(_pack(
                        t_ordered, _ordered, 0, _pid, origin, seq, 0,
                        t_delivered, _agreed, 0, _pid, origin, seq, 0,
                    ))

        probe.message_sent = message_sent
        probe.data_received = data_received
        probe.token_handled = token_handled
        probe.multicast = multicast
        probe.coalesced = coalesced
        probe.delivered = delivered
        return probe

    # -- output --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._buf) // RECORD_SIZE

    @property
    def records(self) -> List[TraceRecord]:
        """Decoded stamps in event order (a fresh list per access)."""
        return self.to_records()

    def to_records(self) -> List[TraceRecord]:
        return [
            TraceRecord(t, stage, node, origin, seq, aux)
            for t, stage, _reserved, node, origin, seq, aux
            in RECORD_STRUCT.iter_unpack(bytes(self._buf))
        ]

    def write_binary(self, path: str) -> str:
        """Write the ``.rtrace`` binary flavor; returns the path."""
        with TraceWriter(
            path, self.world, self.clock_kind, self.label
        ) as writer:
            writer.write_packed(bytes(self._buf))
        return path

    def write_jsonl(self, path: str) -> str:
        """Write the JSONL flavor; returns the path."""
        with open(path, "w") as handle:
            tracefmt.write_jsonl(
                handle, self.to_records(),
                self.world, self.clock_kind, self.label,
            )
        return path

    def write(self, path: str) -> str:
        """Write binary unless the path ends in ``.jsonl``."""
        if path.endswith(".jsonl"):
            return self.write_jsonl(path)
        return self.write_binary(path)


def sim_tracer(cluster, label: str = "") -> LifecycleTracer:
    """A tracer on the sim clock, fully wired into a SimCluster.

    Use via :meth:`repro.sim.cluster.SimCluster.attach_tracer`.
    """
    tracer = LifecycleTracer(
        # partial(getattr, ...) stays entirely in C — a Python lambda
        # here would add a frame to every participant-stage stamp.
        clock=functools.partial(getattr, cluster.sim, "now"),
        world=WORLD_SIM,
        clock_kind=CLOCK_SIM,
        label=label,
    )
    return _install(tracer, cluster.nodes.values())


def emulation_tracer(
    ring, t0: float, label: str = ""
) -> LifecycleTracer:
    """A tracer on the wall clock, wired into an EmulatedRing.

    ``t0`` anchors timestamps so they are comparable with the ring's
    ``.rcap`` captures (both subtract the same monotonic origin).
    """
    import time

    tracer = LifecycleTracer(
        clock=lambda: time.monotonic() - t0,
        world=WORLD_EMULATION,
        clock_kind=CLOCK_WALL,
        label=label,
        epoch=t0,
    )
    return _install(tracer, ring.nodes.values())


def _install(tracer: LifecycleTracer, nodes) -> LifecycleTracer:
    """Install one node probe on each driver node and its participant."""
    for node in nodes:
        probe = tracer.node_probe(node.pid)
        node.participant.probe = probe
        node.probe = probe
    return tracer
