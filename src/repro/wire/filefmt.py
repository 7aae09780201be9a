"""The file envelope shared by ``.rcap`` captures and ``.rtrace`` traces.

Both formats open with the same 12-byte header and a label::

    offset  size  field
    0       4     magic (b"RCAP" or b"RTRC")
    4       2     format version
    6       1     world: 0 = sim, 1 = emulation
    7       1     format byte (rcap: reserved, 0; rtrace: the clock)
    8       4     label length
    12      ...   UTF-8 label (free-form, e.g. the run's parameters)

followed by records appended in write order.  A file that ends
mid-record (a crashed writer) is reported through ``truncated_tail`` and
keeps every record before the tail readable.
"""

from __future__ import annotations

import struct
from typing import BinaryIO, NamedTuple

WORLD_SIM = 0
WORLD_EMULATION = 1
WORLD_NAMES = {WORLD_SIM: "sim", WORLD_EMULATION: "emulation"}

_HEADER = struct.Struct("<4sHBBI")


class FileFormat(NamedTuple):
    """What tells one envelope-framed format from the other."""

    magic: bytes
    version: int
    name: str  #: used in error messages ("rcap", "rtrace").
    error: type  #: raised by readers on a malformed file.


class EnvelopeWriter:
    """Creates a file and writes its header; subclasses append records.

    Subclasses set :attr:`FORMAT`; ``format_byte`` is header offset 7.
    """

    FORMAT: FileFormat

    def __init__(
        self, path: str, world: int, format_byte: int, label: str
    ) -> None:
        fmt = self.FORMAT
        if world not in WORLD_NAMES:
            raise ValueError("unknown %s world %r" % (fmt.name, world))
        raw_label = label.encode("utf-8")
        self._handle: BinaryIO = open(path, "wb")
        self._handle.write(_HEADER.pack(
            fmt.magic, fmt.version, world, format_byte, len(raw_label)
        ))
        self._handle.write(raw_label)
        self.path = path
        self.world = world
        self.label = label
        self.records_written = 0

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.flush()
            self._handle.close()

    def __enter__(self):
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class EnvelopeReader:
    """Loads a whole file and validates its header.

    Subclasses set :attr:`FORMAT` and iterate the records from
    ``self._body_start``, calling :meth:`_truncated` before reading
    each record's bytes.
    """

    FORMAT: FileFormat

    def __init__(self, path: str) -> None:
        fmt = self.FORMAT
        self.path = path
        with open(path, "rb") as handle:
            self._data = handle.read()
        if len(self._data) < _HEADER.size:
            raise fmt.error("file shorter than the %s header" % fmt.name)
        magic, version, world, format_byte, label_len = _HEADER.unpack_from(
            self._data
        )
        if magic != fmt.magic:
            raise fmt.error("bad %s magic %r" % (fmt.name, magic))
        if version != fmt.version:
            raise fmt.error("unsupported %s version %d" % (fmt.name, version))
        if world not in WORLD_NAMES:
            raise fmt.error("unknown %s world %d" % (fmt.name, world))
        body_start = _HEADER.size + label_len
        if body_start > len(self._data):
            raise fmt.error("truncated %s label" % fmt.name)
        try:
            self.label = self._data[_HEADER.size:body_start].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise fmt.error("invalid %s label: %s" % (fmt.name, exc))
        self.world = world
        self.world_name = WORLD_NAMES[world]
        self._format_byte = format_byte
        self._body_start = body_start
        #: Set by iteration when the file ends mid-record (crashed writer).
        self.truncated_tail = False

    def _truncated(self, end: int) -> bool:
        """True (and flags the tail) when a record would end past the file."""
        if end > len(self._data):
            self.truncated_tail = True
            return True
        return False
