"""Deterministic in-process ring driver for correctness testing.

Runs a set of :class:`~repro.core.Participant` state machines over an
instantaneous, per-link-FIFO "network" with optional message dropping.
There is no notion of time — participants take turns round-robin,
processing one pending input per turn according to the protocol's
token/data priority rules — so every run is exactly reproducible and
suitable for unit, property-based and differential tests.

Performance questions (latency, throughput) are answered by the
discrete-event substrate in :mod:`repro.sim`, not here.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence

from ..core import (
    DataMessage,
    Participant,
    ProtocolConfig,
    Ring,
    SendToken,
    Service,
    Token,
    initial_token,
)
from ..core.executor import execute

#: Optional drop predicates: return True to lose the message on that link.
DataDropRule = Callable[[DataMessage, int], bool]
TokenDropRule = Callable[[Token, int], bool]


class StabilityViolation(AssertionError):
    """A Safe message was delivered before everyone had it."""


class LoopbackRing:
    """An N-participant ring with an instantaneous loss-injectable network."""

    def __init__(
        self,
        pids: Sequence[int],
        config: Optional[ProtocolConfig] = None,
        drop_data: Optional[DataDropRule] = None,
        drop_token: Optional[TokenDropRule] = None,
        check_stability: bool = True,
        on_deliver: Optional[Callable[[int, DataMessage], None]] = None,
    ) -> None:
        self.ring = Ring.of(pids)
        self.config = config or ProtocolConfig()
        self.participants: Dict[int, Participant] = {
            pid: Participant(pid, self.ring, self.config) for pid in self.ring
        }
        self._token_inbox: Dict[int, Deque[Token]] = {p: deque() for p in self.ring}
        self._data_inbox: Dict[int, Deque[DataMessage]] = {p: deque() for p in self.ring}
        self._drop_data = drop_data
        self._drop_token = drop_token
        self._check_stability = check_stability
        self._on_deliver = on_deliver
        #: Per-participant delivery logs: list of DataMessage in order.
        self.delivered: Dict[int, List[DataMessage]] = {p: [] for p in self.ring}
        self._ports = {pid: _Port(self, pid) for pid in self.ring}
        self.steps_taken = 0
        self.data_drops = 0
        self.token_drops = 0
        self._started = False

    # -- workload --------------------------------------------------------

    def submit(
        self,
        pid: int,
        payload: Any,
        service: Service = Service.AGREED,
        payload_size: int = 0,
    ) -> None:
        self.participants[pid].submit(payload, service, payload_size)

    def submit_many(
        self, pid: int, payloads: Sequence[Any], service: Service = Service.AGREED
    ) -> None:
        for payload in payloads:
            self.submit(pid, payload, service)

    # -- execution ---------------------------------------------------------

    def start(self) -> None:
        """Inject the first regular token at the ring leader."""
        if self._started:
            raise RuntimeError("ring already started")
        self._started = True
        self._token_inbox[self.ring.leader].append(
            initial_token(self.ring.ring_id)
        )

    def step(self) -> bool:
        """Let each participant process at most one input; False if idle."""
        progressed = False
        for pid in self.ring:
            if self._step_one(pid):
                progressed = True
        if progressed:
            self.steps_taken += 1
        return progressed

    def run(self, max_steps: int = 100_000) -> int:
        """Step until quiescent (all inboxes empty); returns steps taken.

        A ring with a live token never quiesces on its own, so the run
        stops once the token is parked: every inbox empty except a token
        waiting at a participant with no data pending anywhere — covered
        by running until only token handling with no sends would repeat.
        In practice: we stop when a full sweep makes no progress OR when
        all application backlogs and data inboxes are empty and the token
        has completed two further cleanup rounds (to raise aru and
        deliver Safe messages).
        """
        if not self._started:
            self.start()
        idle_token_rounds = 0
        hops_per_round = len(self.ring)
        last_hop_seen = -1
        last_delivered = self._total_delivered()
        for step in range(max_steps):
            if not self.step():
                return step
            # A round only counts as idle if nothing was DELIVERED in it
            # either: after a retransmission recovers a lagging
            # participant, the token aru jumps and Safe messages need up
            # to two further rotations (the two-rotation stability rule)
            # before everyone's safe bound catches up.  Counting those
            # rotations as idle parks the token with deliverable
            # messages still pending.
            delivered = self._total_delivered()
            if delivered != last_delivered:
                last_delivered = delivered
                idle_token_rounds = 0
            if self._all_data_done():
                current_hop = max(
                    p.last_received_hop for p in self.participants.values()
                )
                if current_hop >= last_hop_seen + hops_per_round:
                    idle_token_rounds += 1
                    last_hop_seen = current_hop
                if idle_token_rounds >= 3:
                    return step
            else:
                idle_token_rounds = 0
                last_hop_seen = max(
                    p.last_received_hop for p in self.participants.values()
                )
        raise RuntimeError("run() did not settle within %d steps" % max_steps)

    def run_rounds(self, rounds: int, max_steps: int = 1_000_000) -> None:
        """Run until the leader has handled ``rounds`` more tokens."""
        if not self._started:
            self.start()
        leader = self.participants[self.ring.leader]
        target = leader.stats.tokens_handled + rounds
        for _step in range(max_steps):
            if leader.stats.tokens_handled >= target:
                return
            if not self.step():
                raise RuntimeError(
                    "ring went idle before completing %d rounds" % rounds
                )
        raise RuntimeError("run_rounds() exceeded %d steps" % max_steps)

    def retransmit_token(self, pid: int) -> None:
        """Simulate the token-retransmission timer firing at ``pid``."""
        participant = self.participants[pid]
        token = participant.last_token_sent
        if token is None:
            return
        self._route_token(token, participant.successor, allow_drop=False)

    # -- inspection ----------------------------------------------------------

    def delivered_seqs(self, pid: int) -> List[int]:
        return [m.seq for m in self.delivered[pid]]

    def delivered_payloads(self, pid: int) -> List[Any]:
        return [m.payload for m in self.delivered[pid]]

    def all_quiet(self) -> bool:
        return all(not q for q in self._data_inbox.values()) and all(
            not q for q in self._token_inbox.values()
        )

    def _total_delivered(self) -> int:
        return sum(len(log) for log in self.delivered.values())

    def _all_data_done(self) -> bool:
        return (
            all(not q for q in self._data_inbox.values())
            and all(p.backlog == 0 for p in self.participants.values())
        )

    # -- internals --------------------------------------------------------------

    def _step_one(self, pid: int) -> bool:
        participant = self.participants[pid]
        token_q = self._token_inbox[pid]
        data_q = self._data_inbox[pid]
        if not token_q and not data_q:
            return False
        take_token = bool(token_q) and (participant.token_has_priority or not data_q)
        if take_token:
            actions = participant.on_token(token_q.popleft())
        else:
            actions = participant.on_data(data_q.popleft())
        for _ in execute(actions, self._ports[pid], None):
            pass  # the loopback network charges no CPU: nothing is yielded
        return True

    def _route_data(self, message: DataMessage, source: int) -> None:
        for pid in self.ring:
            if pid == source:
                continue
            if self._drop_data is not None and self._drop_data(message, pid):
                self.data_drops += 1
                continue
            self._data_inbox[pid].append(message)

    def _route_token(self, token: Token, dst: int, allow_drop: bool) -> None:
        if (
            allow_drop
            and self._drop_token is not None
            and self._drop_token(token, dst)
        ):
            self.token_drops += 1
            return
        self._token_inbox[dst].append(token)

    def _record_delivery(self, pid: int, message: DataMessage) -> None:
        self.delivered[pid].append(message)
        if self._on_deliver is not None:
            self._on_deliver(pid, message)
        if self._check_stability and message.service.requires_stability:
            for other_pid, other in self.participants.items():
                if not other.buffer.has(message.seq):
                    raise StabilityViolation(
                        "pid %d delivered Safe seq %d before pid %d received it"
                        % (pid, message.seq, other_pid)
                    )


class _Port:
    """One participant's side of the loopback network (executor port)."""

    __slots__ = ("ring", "pid")

    charge = None
    coalesce = None
    header_bytes = 0

    def __init__(self, ring: LoopbackRing, pid: int) -> None:
        self.ring = ring
        self.pid = pid

    def sized(self, message: DataMessage):
        return message, 0

    def send_datagram(self, packets, _size: int) -> None:
        self.ring._route_data(packets[0], source=self.pid)

    def send_token(self, action: SendToken) -> None:
        self.ring._route_token(action.token, action.dst, allow_drop=True)

    def deliver(self, message: DataMessage) -> None:
        self.ring._record_delivery(self.pid, message)
