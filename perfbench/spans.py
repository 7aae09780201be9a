"""Per-layer spans, recorded by wrapping each layer's entry points.

The traced run wraps the entry points of the program's layers at
runtime, from this file only; ``src/`` is never edited and untraced
runs never see a wrapper.  Two private methods are wrapped besides the
public ones: ``Switch._forward`` (the event that replicates a frame,
most of the switch's work) and ``UdpTransport._multicast_data`` (to
count data datagrams, which the transport does not).  Each call records a span (name, start, end,
parent span, the ordered message's seq where the call has one).  A
layer's self time is its spans' time minus the time of the spans they
contain.  Times are per-thread CPU (``time.thread_time``), so a node
thread that loses the interpreter lock mid-call is not charged for the
thread that ran instead; calibration slices that fire inside a span are
charged to neither.

Spans stay in memory (up to ``MAX_KEPT`` of them, the rest only counted
and timed) and are written out once, after the run.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Spans kept verbatim for the dump; every span is counted and timed.
MAX_KEPT = 100_000


class _ThreadState:
    __slots__ = ("ids", "child", "self_s", "calls", "extra")

    def __init__(self) -> None:
        self.ids: List[int] = []
        self.child: List[float] = []
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.extra: Dict[str, float] = {}


class SpanTracer:
    """Installs wrappers, keeps per-thread stacks, aggregates self time."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._ids = iter(range(1, 1 << 62))
        self.kept: List[Tuple[int, int, str, float, float, int]] = []
        # Built on the main thread, where calibration slices run.
        self._main_state = self._state()

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            self._states.append(state)
        return state

    def exclude(self, seconds: float) -> None:
        """Keep ``seconds`` of main-thread CPU out of the open span.

        Called by the calibrator for each slice; the slice then counts
        as a child of the innermost open span, so no layer's self time
        includes it, and every enclosing span sees it only through that
        child.
        """
        child = self._main_state.child
        if child:
            child[-1] += seconds

    def wrap(
        self,
        owner: object,
        attr: str,
        span: str,
        seq_arg: Optional[int] = None,
        on_result: Optional[Callable[[_ThreadState, tuple, object], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` (a class or module) by a span wrapper.

        ``seq_arg`` is the positional index of an argument whose ``seq``
        attribute identifies the ordered message; ``on_result`` sees the
        thread's state, the call's arguments and its return value.
        """
        original = getattr(owner, attr)
        clock = time.thread_time
        state_of = self._state
        next_id = self._ids.__next__
        kept = self.kept

        def wrapper(*args, **kwargs):
            state = state_of()
            ids = state.ids
            child = state.child
            span_id = next_id()
            parent = ids[-1] if ids else 0
            ids.append(span_id)
            child.append(0.0)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                ids.pop()
                inner = child.pop()
                duration = end - start
                self_s = state.self_s
                self_s[span] = self_s.get(span, 0.0) + duration - inner
                calls = state.calls
                calls[span] = calls.get(span, 0) + 1
                if child:
                    child[-1] += duration
                if len(kept) < MAX_KEPT:
                    seq = -1
                    if seq_arg is not None and len(args) > seq_arg:
                        seq = getattr(args[seq_arg], "seq", -1)
                    kept.append((span_id, parent, span, start, end, seq))
            if on_result is not None:
                on_result(state, args, result)
            return result

        wrapper.__wrapped__ = original
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def totals(self) -> Tuple[Dict[str, float], Dict[str, int], Dict[str, float]]:
        """Self seconds, call counts and extra tallies, over all threads."""
        self_s: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        extra: Dict[str, float] = {}
        for state in self._states:
            for table, into in ((state.self_s, self_s), (state.calls, calls),
                                (state.extra, extra)):
                for key, value in table.items():
                    into[key] = into.get(key, 0) + value
        return self_s, calls, extra

    def dump(self, path: str) -> None:
        """Write the kept spans, one JSON array per line."""
        with open(path, "w") as handle:
            for record in self.kept:
                handle.write(json.dumps(record))
                handle.write("\n")


def tally(key: str, measure: Callable[[tuple, object], float]):
    """An ``on_result`` hook adding ``measure(args, result)`` to ``key``."""

    def hook(state: _ThreadState, args: tuple, result: object) -> None:
        extra = state.extra
        extra[key] = extra.get(key, 0.0) + measure(args, result)

    return hook


def install_layers(tracer: SpanTracer) -> None:
    """Wrap the entry points of every measured layer.

    Span names are the layer names the benchmark reports.  Functions
    that a module imported by name are wrapped where they are looked up
    (``repro.core.participant.pack_next``, the codec functions in
    ``repro.emulation.transport``).  Drivers that bind a method at
    construction (``Nic`` binds ``Switch.receive``) see the wrapper
    because it is installed before any system is built.
    ``repro.multiring`` is deliberately not wrapped.
    """
    from repro.core import participant
    from repro.core.coalesce import JumboDatagram
    from repro.core.messages import DataMessage
    from repro.emulation import transport
    from repro.membership import EVSProcess, GossipDetector
    from repro.net import Nic, Simulator, Switch
    from repro.sim.latency import LatencyRecorder

    wrap = tracer.wrap
    wrap(Simulator, "run", "net.engine")
    wrap(Switch, "receive", "net.switch")
    wrap(Switch, "_forward", "net.switch")
    wrap(Nic, "send", "net.nic")
    wrap(LatencyRecorder, "record", "sim.latency")
    wrap(participant.Participant, "on_token", "core.participant")
    wrap(participant.Participant, "on_data", "core.participant", seq_arg=1)
    wrap(participant, "pack_next", "core.packing")
    wrap(transport, "coalesce", "core.coalesce")

    def encoded(state, args, blob):
        # Counts packet encodings: a jumbo re-encodes each packet in it.
        extra = state.extra
        extra["encoded_bytes"] = extra.get("encoded_bytes", 0) + len(blob)
        message = args[0]
        packets = (len(message.messages) if type(message) is JumboDatagram
                   else type(message) is DataMessage)
        extra["data_encodes"] = extra.get("data_encodes", 0) + packets

    wrap(transport, "encode", "wire.codec.encode", seq_arg=0,
         on_result=encoded)
    wrap(transport, "decode_detail", "wire.codec.decode")
    for name in ("send_data", "send_data_batch", "send_token"):
        wrap(transport.UdpTransport, name, "emulation.transport.send")
    wrap(transport.UdpTransport, "_multicast_data", "emulation.transport.send",
         on_result=tally("data_multicasts", lambda args, result: 1))
    wrap(transport.UdpTransport, "poll", "emulation.transport.poll",
         on_result=tally("empty_polls",
                         lambda args, got: not got[0] and not got[1]))
    wrap(EVSProcess, "tick", "membership.tick")
    for name in ("handle_ctrl", "handle_token", "handle_data"):
        wrap(EVSProcess, name, "membership.evs")
    wrap(GossipDetector, "tick", "membership.gossip")
    wrap(GossipDetector, "handle", "membership.gossip")
