"""``.rcap`` packet captures: one record format for both worlds.

A capture is a flat binary file of wire frames plus per-frame metadata
(timestamp, source, destination, logical port).  The simulated switch
and the real-socket UDP transport write the *same* format, so one
decoder (:mod:`repro.wire.decode`) serves both and a sim run can be
diffed against an emulation run frame-for-frame.

The file opens with the envelope shared with ``.rtrace``
(:mod:`repro.wire.filefmt`): magic b"RCAP", format version 1, the
world, a reserved byte (0) and the label.  Zero or more records
follow::

    0       8     timestamp, seconds (f64; sim time or monotonic time)
    8       8     source id (i64; -1 = unknown)
    16      8     destination id (i64; -1 = multicast)
    24      1     traffic class: 0 = data port, 1 = token port
    25      1     reserved (0)
    26      2     reserved (0)
    28      4     frame length
    32      ...   the encoded wire frame (:mod:`repro.wire.codec`)

Records are appended in capture order; the file needs no index.
"""

from __future__ import annotations

import struct
import threading
from typing import Any, Iterator, NamedTuple, Optional

from . import codec
from .codec import DecodeError, EncodeError
# WORLD_* are re-exported: capture writers name their world through here.
from .filefmt import (
    WORLD_EMULATION,
    WORLD_SIM,
    EnvelopeReader,
    EnvelopeWriter,
    FileFormat,
)

TRAFFIC_DATA = 0
TRAFFIC_TOKEN = 1
TRAFFIC_NAMES = {TRAFFIC_DATA: "data", TRAFFIC_TOKEN: "token"}

_RECORD_HEADER = struct.Struct("<dqqBBHI")

#: Destination id meaning "multicast to every other port".
MULTICAST = -1


class CaptureError(ValueError):
    """The file is not a readable ``.rcap`` capture."""


RCAP = FileFormat(b"RCAP", 1, "rcap", CaptureError)


class CaptureRecord(NamedTuple):
    """One captured frame, still encoded."""

    timestamp: float
    src: int
    dst: int  #: ``MULTICAST`` (-1) for multicast frames.
    traffic: int  #: ``TRAFFIC_DATA`` or ``TRAFFIC_TOKEN``.
    blob: bytes

    @property
    def traffic_name(self) -> str:
        return TRAFFIC_NAMES.get(self.traffic, "t%d" % self.traffic)

    def decode(self) -> codec.Decoded:
        """Decode the captured frame (raises DecodeError if corrupt)."""
        return codec.decode_detail(self.blob)


class CaptureWriter(EnvelopeWriter):
    """Append-only ``.rcap`` writer; safe to share across node threads."""

    FORMAT = RCAP

    def __init__(self, path: str, world: int, label: str = "") -> None:
        super().__init__(path, world, 0, label)
        #: Frames the tap saw but could not encode (sim-internal payloads).
        self.records_skipped = 0
        self._lock = threading.Lock()

    def write(
        self,
        timestamp: float,
        src: int,
        dst: Optional[int],
        traffic: int,
        blob: bytes,
    ) -> None:
        """Append one already-encoded frame."""
        record = _RECORD_HEADER.pack(
            timestamp,
            src if src is not None else -1,
            dst if dst is not None else MULTICAST,
            traffic, 0, 0,
            len(blob),
        ) + blob
        with self._lock:
            if self._handle.closed:
                return  # a late sender racing close(); drop silently
            self._handle.write(record)
            self.records_written += 1

    def write_message(
        self,
        timestamp: float,
        src: int,
        dst: Optional[int],
        traffic: int,
        message: Any,
        ring_id: int = 0,
    ) -> bool:
        """Encode and append one protocol message.

        Returns False (and counts the skip) when the payload has no wire
        encoding — capture must never take down the node it observes.
        """
        try:
            blob = codec.encode(message, ring_id=ring_id)
        except EncodeError:
            with self._lock:
                self.records_skipped += 1
            return False
        self.write(timestamp, src, dst, traffic, blob)
        return True

    def close(self) -> None:
        with self._lock:
            super().close()


class CaptureReader(EnvelopeReader):
    """Sequential reader over an ``.rcap`` file."""

    FORMAT = RCAP

    def __iter__(self) -> Iterator[CaptureRecord]:
        data = self._data
        pos = self._body_start
        size = len(data)
        while pos < size:
            if self._truncated(pos + _RECORD_HEADER.size):
                return
            (timestamp, src, dst, traffic, _r1, _r2,
             blob_len) = _RECORD_HEADER.unpack_from(data, pos)
            pos += _RECORD_HEADER.size
            if self._truncated(pos + blob_len):
                return
            yield CaptureRecord(
                timestamp, src, dst, traffic, data[pos:pos + blob_len]
            )
            pos += blob_len


# -- taps -------------------------------------------------------------------

class SimCaptureTap:
    """Switch-ingress tap for the simulator.

    Install with :meth:`repro.net.Switch.set_capture`; every frame that
    reaches the crossbar is encoded once (multicast frames appear once,
    as on the switch's ingress port, exactly like the emulation's
    send-side tap).  Sim-internal frame payloads without a wire
    representation (e.g. the EVS harness's control-tuple markers) are
    unwrapped when possible and otherwise counted as skips.
    """

    def __init__(self, sim, writer: CaptureWriter) -> None:
        self.sim = sim
        self.writer = writer

    def __call__(self, frame) -> None:
        from ..net.frames import Traffic  # local: avoid import cycle

        traffic = TRAFFIC_TOKEN if frame.traffic is Traffic.TOKEN else TRAFFIC_DATA
        payload = frame.payload
        ring_id = 0
        # The EVS sim node wraps payloads in marker tuples:
        # ("data", ring_id, message) / ("data", ring_id, token) on the
        # token port / ("ctrl", membership_message).
        if type(payload) is tuple:
            if len(payload) == 3 and payload[0] == "data":
                ring_id, payload = payload[1], payload[2]
            elif len(payload) == 2 and payload[0] == "ctrl":
                payload = payload[1]
        self.writer.write_message(
            self.sim.now, frame.src, frame.dst, traffic, payload,
            ring_id=ring_id if isinstance(ring_id, int) and ring_id >= 0 else 0,
        )
