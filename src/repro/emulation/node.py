"""A threaded node running the sans-IO participant over real sockets.

One thread per node, mirroring the paper's single-threaded daemon: the
loop reads the two sockets with the protocol's token/data priority
rules, executes the participant's actions in order (including sending
the token *before* the post-token multicasts — real acceleration over a
real network stack), and retransmits the token on a wall-clock timer.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Any, List, Optional

from ..core import (
    DataMessage,
    Deliver,
    Discard,
    Participant,
    ProtocolConfig,
    Ring,
    SendData,
    SendToken,
    Service,
    Token,
    initial_token,
)
from ..core.probe import Probe, ProbeSlot
from .transport import UdpTransport


class EmulatedNode(threading.Thread):
    """One participant on real UDP sockets, in its own thread."""

    #: Socket poll granularity; bounds timer latency, not throughput.
    POLL_INTERVAL_S = 0.001

    #: The driver-stage probe, as on ``SimNode``; install before
    #: start().  ``delivered`` receives raw ``time.monotonic()``
    #: readings (the tracer holds the epoch).
    probe = ProbeSlot()

    def __init__(
        self,
        pid: int,
        ring: Ring,
        config: ProtocolConfig,
        transport: UdpTransport,
    ) -> None:
        super().__init__(name="emu-node-%d" % pid, daemon=True)
        self.pid = pid
        self.ring = ring
        self.config = config
        self.transport = transport
        # Outgoing data datagrams carry the configuration id on the wire.
        transport.ring_id = ring.ring_id
        self.participant = Participant(pid, ring, config)
        #: Thread-safe application queues.
        self._submissions: "queue.Queue[Tuple[Any, Service]]" = queue.Queue()
        self.delivered: "queue.Queue[DataMessage]" = queue.Queue()
        self._stop_event = threading.Event()
        self._pending_tokens: List[Token] = []
        self._pending_data: List[DataMessage] = []
        self._token_sent_at: Optional[float] = None
        self._token_resends = 0
        self.tokens_resent = 0
        self._probe: Optional[Probe] = None

    # -- application API (any thread) -------------------------------------

    def submit(self, payload: Any, service: Service = Service.AGREED) -> None:
        self._submissions.put((payload, service))

    def stop(self) -> None:
        self._stop_event.set()

    def drain_delivered(self) -> List[DataMessage]:
        out = []
        while True:
            try:
                out.append(self.delivered.get_nowait())
            except queue.Empty:
                return out

    def inject_first_token(self) -> None:
        """Leader only: start the ring."""
        self._pending_tokens.append(initial_token(self.ring.ring_id))

    # -- the node loop -------------------------------------------------------

    def run(self) -> None:
        try:
            while not self._stop_event.is_set():
                self._drain_submissions()
                self._poll_network()
                self._process_one()
                self._maybe_retransmit_token()
        finally:
            self.transport.close()

    def _drain_submissions(self) -> None:
        while True:
            try:
                payload, service = self._submissions.get_nowait()
            except queue.Empty:
                return
            self.participant.submit(payload, service)

    def _poll_network(self) -> None:
        # Block briefly only when there is nothing at all to do.
        idle = not self._pending_tokens and not self._pending_data
        timeout = self.POLL_INTERVAL_S if idle else 0.0
        data, tokens = self.transport.poll(timeout)
        self._pending_data.extend(data)
        self._pending_tokens.extend(tokens)

    def _process_one(self) -> None:
        participant = self.participant
        token_pending = bool(self._pending_tokens)
        data_pending = bool(self._pending_data)
        if not token_pending and not data_pending:
            return
        take_token = token_pending and (
            participant.token_has_priority or not data_pending
        )
        if take_token:
            token = self._pending_tokens.pop(0)
            self._execute(participant.on_token(token))
        else:
            message = self._pending_data.pop(0)
            self._execute(participant.on_data(message))

    def _execute(self, actions) -> None:
        # With coalescing configured, consecutive SendData actions are
        # batched and flushed as jumbo datagrams; the batch also flushes
        # before any other action so the token keeps its place after the
        # pre-token sends (that ordering IS the acceleration).
        jumbo_cap = self.config.jumbo_datagram_bytes
        probe = self._probe
        if probe is not None:
            # The participant returned this batch at the current
            # instant: every Deliver in it was ordered (released) now.
            t_ordered = time.monotonic()
        batch: List[DataMessage] = []
        for action in actions:
            if isinstance(action, SendData):
                if jumbo_cap is None:
                    self.transport.send_data(action.message)
                    if probe is not None:
                        probe.multicast(action.message, action.retransmission,
                                        False)
                else:
                    batch.append(action.message)
                continue
            if batch:
                self._flush_batch(batch, jumbo_cap)
                batch = []
            if isinstance(action, SendToken):
                if action.dst == self.pid:
                    self._pending_tokens.append(action.token)
                else:
                    self.transport.send_token(action.token, action.dst)
                self._token_sent_at = time.monotonic()
                self._token_resends = 0
            elif isinstance(action, Deliver):
                self.delivered.put(action.message)
                if probe is not None:
                    probe.delivered(action.message, t_ordered,
                                    time.monotonic())
            elif isinstance(action, Discard):
                pass
        if batch:
            self._flush_batch(batch, jumbo_cap)

    def _flush_batch(self, batch: List[DataMessage], jumbo_cap: int) -> None:
        self.transport.send_data_batch(batch, jumbo_cap)
        probe = self._probe
        if probe is not None:
            coalesced = len(batch) > 1
            if coalesced:
                probe.coalesced(batch)
            for message in batch:
                probe.multicast(message, False, coalesced)

    def _maybe_retransmit_token(self) -> None:
        participant = self.participant
        if self._token_sent_at is None or participant.last_token_sent is None:
            return
        if participant.progress_since_token_send():
            self._token_sent_at = None
            return
        timeout = self.config.token_retransmit_timeout_s
        if time.monotonic() - self._token_sent_at < timeout:
            return
        if self._token_resends >= self.config.token_retransmit_limit:
            return
        token = participant.last_token_sent
        dst = self.ring.successor(self.pid)
        if dst == self.pid:
            self._pending_tokens.append(token)
        else:
            self.transport.send_token(token, dst)
        self._token_sent_at = time.monotonic()
        self._token_resends += 1
        self.tokens_resent += 1
