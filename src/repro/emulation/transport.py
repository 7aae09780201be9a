"""Real-socket transport: UDP on localhost.

The paper's implementations use IP-multicast for data and UDP unicast
for the token, on separate ports/sockets (Section III-D).  This
emulation keeps the two-socket structure but builds logical multicast
from unicast fan-out so it runs anywhere (the paper notes Spread offers
the same fallback where IP-multicast is unavailable).

Datagrams carry the real wire format (:mod:`repro.wire.codec`): a
versioned, CRC-protected binary encoding, not pickle.  Receiving is
strict — a malformed, truncated or oversized datagram is counted and
dropped, never parsed optimistically and never allowed to crash the
node thread.
"""

from __future__ import annotations

import select
import socket
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.coalesce import JumboDatagram, coalesce
from ..core.messages import DataMessage, Token
from ..wire.capture import TRAFFIC_DATA, TRAFFIC_TOKEN, CaptureWriter
from ..wire.codec import (
    HEADER_SIZE,
    DecodeError,
    EncodeError,
    decode_detail,
    encode,
    frame_jumbo,
)

#: Loss hook for tests: (kind, obj, dst_pid) -> True to drop the send.
SendLossRule = Callable[[str, Any, int], bool]

#: Largest datagram this transport will put on the wire.  Generous for
#: loopback; a deployment would tune this to the path MTU and lean on
#: the packing layer instead.
MAX_DATAGRAM = 60_000

#: Receive buffer: the largest payload a UDP datagram can carry at all,
#: so the kernel can never silently truncate what we read — anything
#: over :data:`MAX_DATAGRAM` is *our* protocol violation and is counted
#: as an oversize drop instead.
_RECV_BUFSIZE = 65_535


class OversizedDatagramError(ValueError):
    """A send-side message encoded past :data:`MAX_DATAGRAM`."""

    def __init__(self, message: Any, encoded_size: int) -> None:
        self.wire_message = message
        self.encoded_size = encoded_size
        super().__init__(
            "%s encodes to %d bytes, over the %d-byte datagram limit; "
            "shrink the payload or let the packing layer split it"
            % (type(message).__name__, encoded_size, MAX_DATAGRAM)
        )


class PortPair:
    """The two receive ports of one node (data, token)."""

    def __init__(self, data_port: int, token_port: int) -> None:
        self.data_port = data_port
        self.token_port = token_port


class UdpTransport:
    """Two bound UDP sockets plus fan-out addressing of all peers."""

    def __init__(self, pid: int, host: str = "127.0.0.1") -> None:
        self.pid = pid
        self.host = host
        self._data_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._token_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        for sock in (self._data_sock, self._token_sock):
            sock.bind((host, 0))
            sock.setblocking(False)
        self.ports = PortPair(
            self._data_sock.getsockname()[1],
            self._token_sock.getsockname()[1],
        )
        self._peers: Dict[int, PortPair] = {}
        self._loss: Optional[SendLossRule] = None
        #: Configuration id stamped on outgoing data datagrams.
        self.ring_id = 0
        self.datagrams_sent = 0
        self.datagrams_received = 0
        #: Datagrams rejected by strict decoding (bad magic/version/CRC/
        #: layout, or a message type the socket does not accept).
        self.drops_malformed = 0
        #: Datagrams larger than :data:`MAX_DATAGRAM` (foreign senders;
        #: our own send side refuses to create them).
        self.drops_oversize = 0
        #: Last decode failure, for diagnostics (never raised).
        self.last_decode_error: Optional[str] = None
        self._capture: Optional[CaptureWriter] = None
        self._capture_t0 = 0.0

    def set_peers(self, peers: Dict[int, PortPair]) -> None:
        self._peers = dict(peers)

    def set_loss_rule(self, rule: Optional[SendLossRule]) -> None:
        self._loss = rule

    def set_capture(self, writer: Optional[CaptureWriter],
                    t0: Optional[float] = None) -> None:
        """Record every send into ``writer`` (shared across nodes is fine).

        Send-side capture mirrors the simulator's switch-ingress tap:
        one record per logical multicast, not per fan-out copy.
        """
        self._capture = writer
        self._capture_t0 = time.monotonic() if t0 is None else t0

    @property
    def datagrams_dropped(self) -> int:
        """Everything received but refused: malformed plus oversized."""
        return self.drops_malformed + self.drops_oversize

    def register_metrics(self, registry, node: Optional[int] = None) -> None:
        """Expose the transport counters through a MetricsRegistry.

        Bound views over the attributes the socket loops already
        increment; ``node`` scopes them to this transport's pid.
        """
        pid = self.pid if node is None else node
        registry.bind("emulation.transport.datagrams_sent", self,
                      "datagrams_sent", node=pid)
        registry.bind("emulation.transport.datagrams_received", self,
                      "datagrams_received", node=pid)
        registry.bind("emulation.transport.drops_malformed", self,
                      "drops_malformed", node=pid)
        registry.bind("emulation.transport.drops_oversize", self,
                      "drops_oversize", node=pid)

    # -- sending ----------------------------------------------------------

    def _encode_checked(self, obj: Any) -> bytes:
        blob = encode(obj, ring_id=self.ring_id)
        if len(blob) > MAX_DATAGRAM:
            raise OversizedDatagramError(obj, len(blob))
        return blob

    def send_data(self, obj: Any) -> None:
        """Logical multicast: unicast the datagram to every peer."""
        self._multicast_data(self._encode_checked(obj), obj)

    def send_data_batch(self, objs, jumbo_cap: int) -> None:
        """Multicast a burst of data messages, coalescing into jumbos.

        Each group of two or more travels as one jumbo datagram sharing
        a single header and CRC; a group of one is sent byte-for-byte
        as :meth:`send_data` would.
        """
        sized = [self.sized(obj) for obj in objs]
        for packets, size in self.coalesce(sized, jumbo_cap):
            self.send_datagram(packets, size)

    # The executor's data path (repro.core.executor): each data message
    # is encoded once, by ``sized``; a jumbo reuses the encoded bodies.

    def sized(self, message: DataMessage):
        """``((message, frame), body bytes)``: the encoded-size model."""
        blob = self._encode_checked(message)
        return (message, blob), len(blob) - HEADER_SIZE

    def coalesce(self, sized, jumbo_cap: int):
        """Group ``sized`` packets under ``jumbo_cap`` (and MAX_DATAGRAM)."""
        return coalesce(sized, min(jumbo_cap, MAX_DATAGRAM), HEADER_SIZE)

    def send_datagram(self, packets, _size: int = 0) -> None:
        """Multicast one datagram: plain for one packet, else a jumbo."""
        if len(packets) == 1:
            message, blob = packets[0]
            self._multicast_data(blob, message)
            return
        self._multicast_data(
            frame_jumbo([blob for _message, blob in packets]),
            JumboDatagram(tuple(message for message, _blob in packets)),
        )

    def _multicast_data(self, blob: bytes, obj: Any) -> None:
        if self._capture is not None:
            self._capture.write(
                time.monotonic() - self._capture_t0,
                self.pid, None, TRAFFIC_DATA, blob,
            )
        for pid, ports in self._peers.items():
            if pid == self.pid:
                continue
            if self._loss is not None and self._loss("data", obj, pid):
                continue
            self._data_sock.sendto(blob, (self.host, ports.data_port))
            self.datagrams_sent += 1

    def send_token(self, obj: Any, dst: int) -> None:
        blob = self._encode_checked(obj)
        if self._capture is not None:
            self._capture.write(
                time.monotonic() - self._capture_t0,
                self.pid, dst, TRAFFIC_TOKEN, blob,
            )
        if self._loss is not None and self._loss("token", obj, dst):
            return
        ports = self._peers[dst]
        self._token_sock.sendto(blob, (self.host, ports.token_port))
        self.datagrams_sent += 1

    # -- receiving ---------------------------------------------------------

    def _drain(self, sock: socket.socket, want_token: bool) -> List[Any]:
        """Read everything pending; strict decode, count-and-drop errors.

        The token socket accepts only tokens and the data socket only
        data messages — a well-formed frame of any other type (which a
        confused or hostile sender could aim at either port) is just as
        much a protocol violation as a CRC mismatch, and is counted and
        dropped rather than handed to the participant.
        """
        received = []
        expected = Token if want_token else DataMessage
        while True:
            try:
                blob, _addr = sock.recvfrom(_RECV_BUFSIZE)
            except BlockingIOError:
                break
            if len(blob) > MAX_DATAGRAM:
                self.drops_oversize += 1
                continue
            try:
                decoded = decode_detail(blob)
            except DecodeError as exc:
                self.drops_malformed += 1
                self.last_decode_error = str(exc)
                continue
            message = decoded.message
            if not want_token and type(message) is JumboDatagram:
                # The codec guarantees every inner packet is a data
                # message, so a jumbo is acceptable wherever one is.
                received.extend(message.messages)
                self.datagrams_received += 1
                continue
            if type(message) is not expected:
                self.drops_malformed += 1
                self.last_decode_error = (
                    "%s frame on the %s socket"
                    % (decoded.kind, "token" if want_token else "data")
                )
                continue
            received.append(message)
            self.datagrams_received += 1
        return received

    def poll(self, timeout_s: float) -> Tuple[List[Any], List[Any]]:
        """Wait up to ``timeout_s``; returns (data_objs, token_objs)."""
        readable, _w, _x = select.select(
            [self._data_sock, self._token_sock], [], [], timeout_s
        )
        data: List[Any] = []
        tokens: List[Any] = []
        if self._data_sock in readable:
            data = self._drain(self._data_sock, want_token=False)
        if self._token_sock in readable:
            tokens = self._drain(self._token_sock, want_token=True)
        return data, tokens

    def close(self) -> None:
        self._data_sock.close()
        self._token_sock.close()


# Re-exported for callers that treat the transport as the wire boundary.
__all__ = [
    "MAX_DATAGRAM",
    "OversizedDatagramError",
    "PortPair",
    "SendLossRule",
    "UdpTransport",
    "DataMessage",
    "EncodeError",
]
