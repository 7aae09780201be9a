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
    Participant,
    ProtocolConfig,
    Ring,
    SendData,
    SendToken,
    Service,
    Token,
)
from ..core.coalesce import JumboDatagram, coalesce
from ..core.executor import execute
from ..core.packing import PackedPayload
from ..core.probe import Probe, ProbeSlot
from ..net import Frame, LinkSpec, Nic, Simulator, Switch, Timeout, Traffic
from .latency import LatencyRecorder
from .profiles import CostProfile


class SimNode:
    """One ring participant bound to the simulated network.

    The node is also the port its action lists run against
    (:mod:`repro.core.executor`): it charges CPU, frames datagrams and
    tokens onto the NIC, and records deliveries.
    """

    __slots__ = (
        "sim", "pid", "profile", "spec", "recorder", "participant",
        "nic", "_deliver_callback", "_token_queue", "_data_queue",
        "_data_queue_bytes", "_socket_buffer_bytes", "_wakeup",
        "_sim_ready", "_timeout_recv_token", "_recv_timeouts", "charge",
        "coalesce", "header_bytes", "_record", "socket_drops",
        "tokens_resent", "_retransmit_deadline", "_probe", "_process",
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
        self._record = recorder.record
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
        self._recv_timeouts: dict = {}
        self.charge = _charges(profile)
        # The sim's size model: a data frame is its payload plus the
        # profile's per-datagram header.
        self.header_bytes = profile.header_bytes
        cap = config.jumbo_datagram_bytes
        self.coalesce = None if cap is None else (
            lambda sized: coalesce(sized, cap, profile.header_bytes)
        )
        self.socket_drops = 0
        self.tokens_resent = 0
        self._retransmit_deadline = 0.0
        # Without a probe the executor pays one ``is not None`` test per
        # stamp site, nothing else.
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
        run = execute
        jumbo = JumboDatagram
        # Direct read of the priority tracker's flag: the public
        # ``participant.token_has_priority`` property costs two Python
        # calls per loop iteration, and this loop runs once per frame.
        priority = participant._priority
        # The probe is read per action list (not captured once): it may
        # be installed between spawn and run().
        while True:
            if token_queue and (priority._token_high or not data_queue):
                token = token_queue.popleft()
                yield timeout_recv_token
                actions = on_token(token)
                if actions:
                    yield from run(actions, self, self._probe)
            elif data_queue:
                frame = data_queue.popleft()
                self._data_queue_bytes -= frame.wire
                message = frame.payload
                # One receive syscall (fixed cost) per datagram, jumbo or
                # not — that amortization is what jumbo framing buys on
                # the receive side.
                size = message.payload_size
                pause = recv_timeouts.get(size)
                if pause is None:
                    pause = recv_timeouts[size] = Timeout(data_recv_cost(size))
                yield pause
                if type(message) is jumbo:
                    for inner in message.messages:
                        actions = on_data(inner)
                        if actions:
                            yield from run(actions, self, self._probe)
                else:
                    actions = on_data(message)
                    if actions:
                        yield from run(actions, self, self._probe)
            else:
                yield wakeup

    # -- the executor's port (repro.core.executor) ----------------------------

    def sized(self, message):
        return message, message.payload_size

    def send_datagram(self, packets, size):
        payload = (
            packets[0] if len(packets) == 1 else JumboDatagram(tuple(packets))
        )
        self.nic.send(Frame(self.pid, None, Traffic.DATA, size, payload))

    def send_token(self, action: SendToken) -> None:
        self._send_token_frame(action)
        self._arm_token_retransmit(action)

    def deliver(self, message: DataMessage) -> None:
        record = self._record
        pid = self.pid
        now = self.sim.now
        payload = message.payload
        if isinstance(payload, PackedPayload):
            # Packed packets: account each application message
            # individually (its own submit time and size).
            for item in payload.items:
                record(pid, message.service, item.submitted_at, now,
                       item.payload_size)
        else:
            record(pid, message.service, message.submitted_at, now,
                   message.payload_size)
        if self._deliver_callback is not None:
            self._deliver_callback(pid, message)

    def now(self) -> float:
        return self.sim.now

    # -- token-loss recovery --------------------------------------------------

    def _send_token_frame(self, send: SendToken) -> None:
        token = send.token
        self.nic.send(Frame(self.pid, send.dst, Traffic.TOKEN, token.size,
                            token))

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
        self._send_token_frame(send)
        self._arm_token_retransmit(send, attempt + 1)


def _charges(profile: CostProfile):
    """The executor's ``charge``: one cached Timeout per (act, size)."""
    token_cpu_s = profile.send_token_cpu_s
    costs = {
        SendData: profile.data_send_cost,
        SendToken: lambda _payload_bytes: token_cpu_s,
        Deliver: profile.deliver_cost,
    }
    caches = {kind: {} for kind in costs}

    def charge(kind, payload_bytes):
        cache = caches[kind]
        pause = cache.get(payload_bytes)
        if pause is None:
            pause = cache[payload_bytes] = Timeout(costs[kind](payload_bytes))
        return pause

    return charge
