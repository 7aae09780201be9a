"""Deterministic datagram mutators for the malformed-frame fuzz suites.

Everything here is seeded: the same ``random.Random`` produces the same
mutation sequence, so a fuzz failure is a repro, not an anecdote.  Used
by ``tests/test_wire_fuzz.py`` (hypothesis property suite plus the
live-daemon spray test) and by ``make wire-fuzz-smoke``.
"""

from __future__ import annotations

import random
import socket
from typing import Callable, Iterator, List, Sequence

from . import codec
from .tags import VALUE_DATA_MESSAGE

Mutator = Callable[[bytes, random.Random], bytes]


def truncate(blob: bytes, rng: random.Random) -> bytes:
    """Cut the datagram anywhere, including to zero bytes."""
    if not blob:
        return blob
    return blob[: rng.randrange(len(blob))]


def bitflip(blob: bytes, rng: random.Random) -> bytes:
    """Flip one random bit."""
    if not blob:
        return blob
    index = rng.randrange(len(blob))
    out = bytearray(blob)
    out[index] ^= 1 << rng.randrange(8)
    return bytes(out)


def corrupt_span(blob: bytes, rng: random.Random) -> bytes:
    """Overwrite a random span with random bytes."""
    if not blob:
        return blob
    start = rng.randrange(len(blob))
    length = rng.randrange(1, min(16, len(blob) - start) + 1)
    out = bytearray(blob)
    out[start:start + length] = rng.randbytes(length)
    return bytes(out)


def extend(blob: bytes, rng: random.Random) -> bytes:
    """Append random trailing garbage (body length must catch it)."""
    return blob + rng.randbytes(rng.randrange(1, 32))


def garbage(blob: bytes, rng: random.Random) -> bytes:
    """Forget the input entirely: pure random bytes."""
    return rng.randbytes(rng.randrange(1, max(2, len(blob) or 64)))


MUTATORS: Sequence[Mutator] = (truncate, bitflip, corrupt_span, extend, garbage)


def mutations(
    blob: bytes,
    seed: int,
    count: int,
    mutators: Sequence[Mutator] = MUTATORS,
) -> Iterator[bytes]:
    """Yield ``count`` seeded mutations of one valid datagram.

    Mutations that happen to reproduce the original bytes are re-rolled
    (a fuzz corpus of valid frames tests nothing).
    """
    rng = random.Random(seed)
    produced = 0
    while produced < count:
        mutator = mutators[rng.randrange(len(mutators))]
        mutated = mutator(blob, rng)
        if mutated == blob:
            continue
        produced += 1
        yield mutated


def nested_frames(depth: int, seed: int = 0) -> bytes:
    """A data frame embedding a data frame in its payload, ``depth`` deep.

    The innermost frame is a payload-less data message; each level wraps
    the frame so far as its payload value.  Every level costs 65 bytes,
    so 922 levels (59,990 bytes) still fit under the UDP transport's
    60,000-byte datagram limit.  The seed draws each level's fixed
    fields; the shape depends on ``depth`` alone.  Chains of up to the
    codec's nesting bound decode; deeper ones must fail with
    ``DecodeError``, never ``RecursionError``.
    """
    rng = random.Random(seed)

    def data_frame(kind: int, tail: bytes) -> bytes:
        flags = rng.randrange(4)  # post-token and timestamp bits
        stamp = rng.random() if flags & codec._DATA_FLAG_HAS_TIMESTAMP else 0.0
        body = codec._DATA_BODY.pack(
            0,  # ring id: embedded frames carry none
            rng.randrange(1 << 32), rng.randrange(64), rng.randrange(1 << 16),
            stamp, rng.randrange(1 << 16), rng.randrange(4), flags, kind, 0,
        )
        return codec._frame(codec.TYPE_DATA, body + tail)

    blob = data_frame(codec._PAYLOAD_NONE, b"")
    for _ in range(depth):
        blob = data_frame(
            codec._PAYLOAD_VALUE,
            bytes((VALUE_DATA_MESSAGE,)) + codec._U32.pack(len(blob)) + blob,
        )
    return blob


def is_clean_failure(blob: bytes) -> bool:
    """True when strict decoding rejects ``blob`` with DecodeError only.

    Valid decodes also count as clean (a mutation may legitimately land
    on another well-formed frame, CRC included — astronomically rare but
    not impossible for single-byte corpora).  Any *other* exception is a
    decoder bug; the property suite asserts this never happens.
    """
    try:
        codec.decode(blob)
    except codec.DecodeError:
        return True
    except Exception:
        return False
    return True


def spray(
    host: str,
    ports: Sequence[int],
    blobs: Sequence[bytes],
    pace_every: int = 50,
    pace_s: float = 0.002,
) -> int:
    """Send each blob to round-robin ports; returns datagrams sent.

    The brief pacing keeps a burst of garbage from overflowing the
    receiver's kernel socket buffer, so drop counters stay exact and
    the live-daemon fuzz test can assert them byte-for-byte.
    """
    import time

    sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sent = 0
    try:
        for index, blob in enumerate(blobs):
            sender.sendto(blob, (host, ports[index % len(ports)]))
            sent += 1
            if pace_every and (index + 1) % pace_every == 0:
                time.sleep(pace_s)
    finally:
        sender.close()
    return sent


def corpus(seed: int, count: int) -> List[bytes]:
    """A deterministic mixed corpus of malformed datagrams.

    Mutations of a representative valid frame of every message type,
    plus pure-garbage datagrams; all strictly rejected by the decoder
    (verified here, so callers can count them as guaranteed drops).
    """
    from ..core.config import Service
    from ..core.messages import DataMessage, Token

    samples = [
        codec.encode(Token(ring_id=1, hop=9, seq=40, aru=38, aru_id=2,
                           fcc=3, rtr=(17, 21))),
        codec.encode(DataMessage(seq=5, pid=1, round=2,
                                 service=Service.AGREED,
                                 payload=b"fuzz-corpus-payload" * 8,
                                 payload_size=152, submitted_at=0.25)),
        codec.encode(DataMessage(seq=6, pid=0, round=2,
                                 service=Service.SAFE,
                                 payload=("tuple", 3, None))),
    ]
    rng = random.Random(seed)
    out: List[bytes] = []
    per_sample = max(1, count // (len(samples) + 1))
    for index, blob in enumerate(samples):
        for mutated in mutations(blob, seed + index, per_sample):
            if is_clean_failure(mutated) and _rejected(mutated):
                out.append(mutated)
    while len(out) < count:
        blob = rng.randbytes(rng.randrange(1, 256))
        if _rejected(blob):
            out.append(blob)
    return out[:count]


def _rejected(blob: bytes) -> bool:
    try:
        codec.decode(blob)
    except codec.DecodeError:
        return True
    return False
