"""A simulated host: single-threaded CPU driving the protocol engine.

Models what the paper's daemons actually are: one process, one core,
reading from two UDP sockets (token and data on different ports, Section
III-D), paying CPU for every receive, send, and delivery.  The
token/data priority switching is implemented exactly as described: when
data has high priority the token socket is not read unless no data
message is available, and vice versa.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional

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
)
from ..core.coalesce import (
    JUMBO_COUNT_BYTES,
    JUMBO_ENTRY_BYTES,
    JumboDatagram,
)
from ..core.packing import PackedPayload
from ..core.probe import Probe, ProbeSlot
from ..net import Frame, LinkSpec, Nic, Simulator, Switch, Timeout, Traffic
from .latency import LatencyRecorder
from .profiles import CostProfile


class SimNode:
    """One ring participant bound to the simulated network."""

    __slots__ = (
        "sim", "pid", "profile", "spec", "recorder", "participant",
        "nic", "_deliver_callback", "_token_queue", "_data_queue",
        "_data_queue_bytes", "_socket_buffer_bytes", "_wakeup",
        "_sim_ready", "_timeout_recv_token", "_timeout_send_token",
        "_recv_timeouts", "_send_timeouts", "_deliver_timeouts",
        "_jumbo_bytes", "socket_drops", "tokens_resent",
        "_retransmit_deadline", "_probe", "_process",
    )

    #: The :class:`~repro.core.probe.Probe` for the driver stages
    #: (``multicast``, ``coalesced``, ``delivered`` — sim-clock times),
    #: or None; install before run().
    probe = ProbeSlot()

    def __init__(
        self,
        sim: Simulator,
        pid: int,
        ring: Ring,
        config: ProtocolConfig,
        profile: CostProfile,
        spec: LinkSpec,
        switch: Switch,
        recorder: LatencyRecorder,
        deliver_callback: Optional[Callable[[int, DataMessage], None]] = None,
    ) -> None:
        self.sim = sim
        self.pid = pid
        self.profile = profile
        self.spec = spec
        self.recorder = recorder
        self.participant = Participant(pid, ring, config)
        self.nic = Nic(sim, pid, spec, switch.receive)
        switch.attach(pid, self._on_frame)
        self._deliver_callback = deliver_callback

        self._token_queue: Deque[Token] = deque()
        self._data_queue: Deque[Frame] = deque()
        self._data_queue_bytes = 0
        self._socket_buffer_bytes = spec.socket_buffer_bytes
        self._wakeup = sim.signal("node%d" % pid)
        self._sim_ready = sim._ready
        # Timeout objects are immutable, so the CPU-charge pauses — a
        # handful of distinct cost values repeated millions of times — are
        # cached per payload size instead of allocated per event.
        self._timeout_recv_token = Timeout(profile.recv_token_cpu_s)
        self._timeout_send_token = Timeout(profile.send_token_cpu_s)
        self._recv_timeouts: dict = {}
        self._send_timeouts: dict = {}
        self._deliver_timeouts: dict = {}
        self._jumbo_bytes = config.jumbo_datagram_bytes
        self.socket_drops = 0
        self.tokens_resent = 0
        self._retransmit_deadline = 0.0
        # Without a probe the send/deliver paths pay one ``is not None``
        # test each, nothing else.
        self._probe: Optional[Probe] = None
        self._process = sim.spawn(self._cpu_loop(), "cpu%d" % pid)

    # -- application-facing -------------------------------------------------

    def submit(
        self,
        payload: Any,
        service: Service,
        payload_size: int,
    ) -> None:
        """Inject one application message (timestamped now)."""
        self.participant.submit(
            payload, service, payload_size, submitted_at=self.sim.now
        )

    @property
    def backlog(self) -> int:
        return self.participant.backlog

    # -- network-facing -------------------------------------------------------

    def _on_frame(self, frame: Frame) -> None:
        if frame.traffic is Traffic.TOKEN:
            # Token socket: tokens are tiny and rare; the buffer holds
            # any realistic number of them.
            self._token_queue.append(frame.payload)
        else:
            wire = frame.wire
            if self._data_queue_bytes + wire > self._socket_buffer_bytes:
                self.socket_drops += 1
                return
            self._data_queue.append(frame)
            self._data_queue_bytes += wire
        # Inlined Signal.fire (value=None): one call per received frame.
        waiters = self._wakeup._waiters
        if waiters:
            self._sim_ready.extend(waiters)
            waiters.clear()

    def start_with_token(self, token: Token) -> None:
        """Install the first regular token (membership's hand-off)."""
        self._token_queue.append(token)
        self._wakeup.fire()

    # -- the single-threaded daemon loop ----------------------------------------

    def _cpu_loop(self):
        profile = self.profile
        participant = self.participant
        token_queue = self._token_queue
        data_queue = self._data_queue
        wakeup = self._wakeup
        timeout_recv_token = self._timeout_recv_token
        recv_timeouts = self._recv_timeouts
        data_recv_cost = profile.data_recv_cost
        on_token = participant.on_token
        on_data = participant.on_data
        # With coalescing on, token handling routes its SendData bursts
        # through the jumbo batcher; receive-side delivery always uses
        # the plain executor (``on_data`` never emits sends).
        execute = (
            self._execute if self._jumbo_bytes is None
            else self._execute_jumbo
        )
        execute_plain = self._execute
        jumbo = JumboDatagram
        # Locals for the inlined delivery path (see the data branch).
        sim = self.sim
        pid = self.pid
        record = self.recorder.record
        deliver_timeouts = self._deliver_timeouts
        deliver_cost = profile.deliver_cost
        deliver_callback = self._deliver_callback
        packed = PackedPayload
        # Direct read of the priority tracker's flag: the public
        # ``participant.token_has_priority`` property costs two Python
        # calls per loop iteration, and this loop runs once per frame.
        priority = participant._priority
        while True:
            if token_queue and (priority._token_high or not data_queue):
                token = token_queue.popleft()
                yield timeout_recv_token
                actions = on_token(token)
                if actions:
                    yield from execute(actions)
            elif data_queue:
                frame = data_queue.popleft()
                self._data_queue_bytes -= frame.wire
                message: DataMessage = frame.payload
                if type(message) is jumbo:
                    # One receive syscall (fixed cost) for the whole
                    # coalesced datagram — that amortization is what
                    # jumbo framing buys on the receive side.
                    size = message.payload_size
                    pause = recv_timeouts.get(size)
                    if pause is None:
                        pause = recv_timeouts[size] = Timeout(
                            data_recv_cost(size)
                        )
                    yield pause
                    for inner in message.messages:
                        actions = on_data(inner)
                        if actions:
                            yield from execute_plain(actions)
                    continue
                size = message.payload_size
                pause = recv_timeouts.get(size)
                if pause is None:
                    pause = recv_timeouts[size] = Timeout(data_recv_cost(size))
                yield pause
                actions = on_data(message)
                if actions:
                    # ``on_data`` returns only Deliver actions (delivery is
                    # the sole side effect of receiving a data message), so
                    # the Deliver arm of ``_execute`` is inlined here — on
                    # the in-order fast path every received message
                    # delivers immediately, and the sub-generator per
                    # receive was measurable.
                    # Attribute (not a captured local): the probe may
                    # be installed between spawn and run().  The release
                    # time is now — the participant returned the batch
                    # at this instant, before any delivery CPU charge.
                    probe = self._probe
                    if probe is not None:
                        t_ordered = sim.now
                    for action in actions:
                        delivered = action.message
                        dsize = delivered.payload_size
                        pause = deliver_timeouts.get(dsize)
                        if pause is None:
                            pause = deliver_timeouts[dsize] = Timeout(
                                deliver_cost(dsize)
                            )
                        yield pause
                        payload = delivered.payload
                        if isinstance(payload, packed):
                            for item in payload.items:
                                record(pid, delivered.service,
                                       item.submitted_at, sim.now,
                                       item.payload_size)
                        else:
                            record(pid, delivered.service,
                                   delivered.submitted_at, sim.now,
                                   delivered.payload_size)
                        if probe is not None:
                            probe.delivered(delivered, t_ordered, sim.now)
                        if deliver_callback is not None:
                            deliver_callback(pid, delivered)
            else:
                yield wakeup

    def _execute(self, actions):
        """Run an action list, yielding Timeouts for each CPU charge.

        Dispatches on the exact action type — the action algebra is a
        closed union (:data:`repro.core.actions.Action`), so this is
        equivalent to the isinstance chain and cheaper per action.
        """
        profile = self.profile
        pid = self.pid
        sim = self.sim
        nic_send = self.nic.send
        record = self.recorder.record
        header_bytes = profile.header_bytes
        send_timeouts = self._send_timeouts
        deliver_timeouts = self._deliver_timeouts
        deliver_callback = self._deliver_callback
        probe = self._probe
        if probe is not None:
            # The participant returned this batch at the current instant
            # — every Deliver in it was ordered (released) now, before
            # any send/delivery CPU below shifts the clock.
            t_ordered = sim.now
        data = Traffic.DATA
        for action in actions:
            kind = type(action)
            if kind is SendData:
                message = action.message
                size = message.payload_size
                pause = send_timeouts.get(size)
                if pause is None:
                    pause = send_timeouts[size] = Timeout(
                        profile.data_send_cost(size)
                    )
                yield pause
                nic_send(Frame(pid, None, data, size + header_bytes, message))
                if probe is not None:
                    probe.multicast(message, action.retransmission, False)
            elif kind is SendToken:
                yield self._timeout_send_token
                nic_send(Frame(
                    pid, action.dst, Traffic.TOKEN,
                    action.token.size, action.token,
                ))
                self._arm_token_retransmit(action)
            elif kind is Deliver:
                message = action.message
                size = message.payload_size
                pause = deliver_timeouts.get(size)
                if pause is None:
                    pause = deliver_timeouts[size] = Timeout(
                        profile.deliver_cost(size)
                    )
                yield pause
                payload = message.payload
                if isinstance(payload, PackedPayload):
                    # Packed packets: account each application message
                    # individually (its own submit time and size).
                    for item in payload.items:
                        record(pid, message.service, item.submitted_at,
                               sim.now, item.payload_size)
                else:
                    record(pid, message.service, message.submitted_at,
                           sim.now, message.payload_size)
                if probe is not None:
                    probe.delivered(message, t_ordered, sim.now)
                if deliver_callback is not None:
                    deliver_callback(pid, message)
            elif kind is Discard:
                pass  # garbage collection is free compared to the rest

    def _execute_jumbo(self, actions):
        """Like :meth:`_execute`, coalescing consecutive SendData runs.

        Batches are bounded by ``config.jumbo_datagram_bytes`` and flush
        on overflow, on any non-send action (a SendToken must keep its
        place after the pre-token sends), and at the end of the action
        list.  Coalescing never spans action lists — like packing, it
        only groups what one token handling already emitted, so no
        batching delay is introduced.
        """
        cap = self._jumbo_bytes
        base = self.profile.header_bytes + JUMBO_COUNT_BYTES
        batch: list = []
        batch_bytes = base
        for action in actions:
            if type(action) is SendData:
                message = action.message
                addition = JUMBO_ENTRY_BYTES + message.payload_size
                if batch and batch_bytes + addition > cap:
                    yield from self._flush_jumbo(batch, batch_bytes)
                    batch = []
                    batch_bytes = base
                batch.append(message)
                batch_bytes += addition
            else:
                if batch:
                    yield from self._flush_jumbo(batch, batch_bytes)
                    batch = []
                    batch_bytes = base
                yield from self._execute((action,))
        if batch:
            yield from self._flush_jumbo(batch, batch_bytes)

    def _flush_jumbo(self, batch, batch_bytes):
        """Send one batch: a lone packet goes plain, more go as a jumbo."""
        profile = self.profile
        send_timeouts = self._send_timeouts
        probe = self._probe
        if len(batch) == 1:
            # Exactly the plain-datagram send: same bytes, same cost.
            message = batch[0]
            size = message.payload_size
            pause = send_timeouts.get(size)
            if pause is None:
                pause = send_timeouts[size] = Timeout(
                    profile.data_send_cost(size)
                )
            yield pause
            self.nic.send(Frame(
                self.pid, None, Traffic.DATA,
                size + profile.header_bytes, message,
            ))
            if probe is not None:
                probe.multicast(message, False, False)
            return
        datagram = JumboDatagram(tuple(batch))
        size = datagram.payload_size
        # One send syscall (fixed cost) for the whole coalesced datagram.
        pause = send_timeouts.get(size)
        if pause is None:
            pause = send_timeouts[size] = Timeout(
                profile.data_send_cost(size)
            )
        yield pause
        self.nic.send(Frame(
            self.pid, None, Traffic.DATA, batch_bytes, datagram,
        ))
        if probe is not None:
            probe.coalesced(batch)
            for message in batch:
                probe.multicast(message, False, True)

    # -- token-loss recovery --------------------------------------------------

    def _arm_token_retransmit(self, send: SendToken, attempt: int = 0) -> None:
        timeout = self.participant.config.token_retransmit_timeout_s
        deadline = self.sim.now + timeout
        self._retransmit_deadline = deadline
        self.sim.call_at(deadline, self._maybe_retransmit, send, attempt)

    def _maybe_retransmit(self, send: SendToken, attempt: int) -> None:
        participant = self.participant
        if participant.last_token_sent is not send.token:
            return  # we have handled a newer token since
        if participant.progress_since_token_send():
            return
        if attempt >= participant.config.token_retransmit_limit:
            return  # membership's problem now (token loss declared)
        self.tokens_resent += 1
        self.nic.send(
            Frame(
                src=self.pid,
                dst=send.dst,
                traffic=Traffic.TOKEN,
                size=send.token.size,
                payload=send.token,
            )
        )
        self._arm_token_retransmit(send, attempt + 1)
