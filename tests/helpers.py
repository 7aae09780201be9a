"""Shared test utilities."""

from __future__ import annotations

import random
from typing import Any, List, Sequence, Set, Tuple

from repro.core import DataMessage, Probe, Service


class FirstTimeLoss:
    """Deterministic loss: drop the first transmission of chosen (seq, dst).

    Retransmissions get through, so runs always converge.  Keyed on seq
    so the same pattern is replayable across different implementations.
    """

    def __init__(self, seed: int, max_seq: int = 2000, pids: Sequence[int] = (), p: float = 0.05):
        rng = random.Random(seed)
        self.targets: Set[Tuple[int, int]] = {
            (s, d)
            for s in range(1, max_seq + 1)
            for d in pids
            if rng.random() < p
        }
        self.seen: Set[Tuple[int, int]] = set()
        self.drops = 0

    def key_drop(self, seq: int, dst: int) -> bool:
        key = (seq, dst)
        if key in self.targets and key not in self.seen:
            self.seen.add(key)
            self.drops += 1
            return True
        return False

    def __call__(self, message: DataMessage, dst: int) -> bool:
        return self.key_drop(message.seq, dst)


class TokenLog(Probe):
    """Ring-wide probe: every token handling, as the hook received it."""

    __slots__ = ("handlings",)

    def __init__(self) -> None:
        self.handlings: List[tuple] = []

    def token_handled(self, pid, received, sent, allowed_new,
                      retransmissions) -> None:
        self.handlings.append(
            (pid, received, sent, allowed_new, retransmissions)
        )


def watch_ring(ring, probe: Probe) -> Probe:
    """Install one probe on every participant of a LoopbackRing."""
    for participant in ring.participants.values():
        participant.probe = probe
    return probe


def mixed_workload(
    seed: int, pids: Sequence[int], per_pid: int, safe_fraction: float = 0.3
) -> List[Tuple[int, Any, Service]]:
    """A reproducible plan of (pid, payload, service) submissions."""
    rng = random.Random(seed)
    plan: List[Tuple[int, Any, Service]] = []
    for pid in pids:
        for i in range(per_pid):
            service = Service.SAFE if rng.random() < safe_fraction else Service.AGREED
            plan.append((pid, "p%d-%d" % (pid, i), service))
    return plan


def assert_same_sequences(sequences: dict) -> None:
    """All participants delivered the same ordered sequence."""
    values = list(sequences.values())
    first = values[0]
    for other in values[1:]:
        assert other == first, "delivery sequences diverge"


def assert_prefix_consistent(sequences: dict) -> None:
    """Each pair of delivery sequences is prefix-related (partial runs)."""
    values = list(sequences.values())
    for i, a in enumerate(values):
        for b in values[i + 1:]:
            shorter, longer = (a, b) if len(a) <= len(b) else (b, a)
            assert longer[: len(shorter)] == shorter, "sequences not prefix-related"
