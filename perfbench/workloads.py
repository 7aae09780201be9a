"""The four workloads: how each repetition is built, run and checked.

A repetition (``rep``) builds its system from a seed, runs it inside a
calibrated window, and returns a :class:`Rep`: what it ordered, what it
cost, its latency samples, the exact counts the program keeps, and any
check that failed.  Everything that depends only on the seed is
deterministic on the simulated workloads, so the runner can demand that
a repeated seed reproduces its counts bit for bit.
"""

from __future__ import annotations

import math
import random
import signal
import time
from typing import Dict, List, Optional

from repro.core import DEFAULT_JUMBO_BYTES, ProtocolConfig, Service
from repro.core.packing import PackedPayload
from repro.emulation import EmulatedRing
from repro.evs import EVSChecker
from repro.evs.configuration import ConfigChange, ConfigurationKind
from repro.membership import GossipConfig
from repro.net import GIGABIT, TEN_GIGABIT, Timeout
from repro.sim import LIBRARY, SimCluster
from repro.sim.churn import CHURN_TIMEOUTS
from repro.sim.evs_node import SimEVSCluster

from calibration import Calibrator, Measured


class Rep:
    """The outcome of one repetition."""

    def __init__(self) -> None:
        self.ordered = 0
        self.attempted = 0
        self.failed = 0
        self.setup: Optional[Measured] = None
        self.run: Optional[Measured] = None
        #: The output check's own cost, where it is timed (churn).
        self.check: Optional[Measured] = None
        #: Submit-to-delivery samples, one per (node, message), in the
        #: workload's latency clock (seconds); dropped by :meth:`condense`.
        self.latencies: List[float] = []
        self.samples = 0
        self.latency_sum = 0.0
        self.p50_us = 0.0
        self.p999_us = 0.0
        #: Exact counts from the program's own counters.
        self.counts: Dict[str, float] = {}
        #: Per-repetition figures that are measured, not counted.
        self.measured: Dict[str, float] = {}
        self.problems: List[str] = []

    def condense(self, us_per_unit: float) -> None:
        """Keep only the latency percentiles (in microseconds) and a
        checksum of the samples, so a long run's memory stays flat."""
        samples = sorted(self.latencies)
        self.latencies = []
        self.samples = len(samples)
        if samples:
            self.latency_sum = math.fsum(samples)
            self.p50_us = percentile(samples, 0.50) * us_per_unit
            self.p999_us = percentile(samples, 0.999) * us_per_unit


def percentile(ordered: List[float], q: float) -> float:
    """The repo's percentile convention (``repro.sim.latency.summarize``)."""
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


# -- packet-level sim: SimCluster ----------------------------------------------


class SimWorkload:
    """Open-loop fixed-rate injection into an 8-node ``SimCluster``.

    Each repetition injects for ``inject_s`` of sim time and then runs
    ``drain_s`` more with no new submissions, so every message must be
    delivered at every node by the end.
    """

    deterministic = True
    n_nodes = 8
    #: Sim time after the last submission; every message is delivered
    #: everywhere within a few token rotations.
    drain_s = 0.003

    def __init__(self, name, spec, service, payload_size, rate_bps,
                 inject_s, config, fixed_reps):
        self.name = name
        self.spec = spec
        self.service = service
        self.payload_size = payload_size
        self.rate_bps = rate_bps
        self.inject_s = inject_s
        self.config = config
        self.fixed_reps = fixed_reps

    def rep(self, seed: int, cal: Calibrator) -> Rep:
        out = Rep()
        logs: Dict[int, list] = {pid: [] for pid in range(self.n_nodes)}
        stamps: Dict[int, list] = {pid: [] for pid in range(self.n_nodes)}

        def on_deliver(pid, message):
            logs[pid].append(message)
            stamps[pid].append(sim.now)

        window = cal.mark()
        cluster = SimCluster(
            self.n_nodes, self.spec, LIBRARY, self.config,
            payload_size=self.payload_size, service=self.service,
            seed=seed, deliver_callback=on_deliver,
        )
        cluster.inject_at_rate(self.rate_bps, self.inject_s)
        out.setup = window.close()
        sim = cluster.sim

        window = cal.mark()
        result = cluster.run(self.inject_s + self.drain_s, warmup_s=0.0,
                             offered_bps=self.rate_bps)
        out.run = window.close()

        self._check(cluster, result, logs, stamps, out)
        return out

    def _check(self, cluster, result, logs, stamps, out: Rep) -> None:
        lengths = {len(log) for log in logs.values()}
        common = min(lengths)
        longest = max(logs.values(), key=len)
        reference = longest[:common]
        agreed = all(
            all(a is b for a, b in zip(log, reference)) for log in logs.values()
        )
        if not agreed:
            out.problems.append("nodes delivered different sequences")
        if [m.seq for m in reference] != list(range(1, common + 1)):
            out.problems.append("delivered seqs are not 1..%d" % common)
        highest = max(
            node.participant.last_token_sent.seq
            for node in cluster.nodes.values()
            if node.participant.last_token_sent is not None
        )
        if len(lengths) != 1 or common != highest:
            out.problems.append(
                "not every initiated message reached every node "
                "(delivered %s, highest seq %d)" % (sorted(lengths), highest)
            )
        if result.saturated:
            out.problems.append("run saturated (backlog %d)" % result.end_backlog)

        def app_count(message) -> int:
            payload = message.payload
            return len(payload.items) if isinstance(payload, PackedPayload) else 1

        ordered = sum(app_count(m) for m in reference) if agreed else 0
        everything = sum(app_count(m) for m in longest) + result.end_backlog
        out.ordered = ordered
        out.attempted = everything
        out.failed = everything - ordered

        samples = out.latencies
        for pid, log in logs.items():
            for message, at in zip(log, stamps[pid]):
                payload = message.payload
                if isinstance(payload, PackedPayload):
                    for item in payload.items:
                        samples.append(at - item.submitted_at)
                else:
                    samples.append(at - message.submitted_at)

        nodes = cluster.nodes.values()
        stats = [node.participant.stats for node in nodes]
        switch = cluster.switch
        out.counts = {
            "packets": common,
            "events": cluster.sim.event_count,
            "frames": switch.frames_received,
            "wire_bytes": sum(switch.class_bytes.values()),
            "data_datagrams": switch.class_frames["data"]
            + switch.class_frames["jumbo"],
            "drops": switch.total_drops()
            + sum(node.nic.drops_overflow for node in nodes),
            "socket_drops": sum(node.socket_drops for node in nodes),
            "sim_tokens_resent": sum(node.tokens_resent for node in nodes),
            "tokens_handled": sum(s.tokens_handled for s in stats),
            "participant_calls": sum(_calls(s) for s in stats),
            "retransmissions": sum(s.retransmissions_sent for s in stats),
            "duplicates": sum(s.data_duplicates + s.duplicate_tokens
                              for s in stats),
            "packets_sent": sum(s.messages_initiated + s.retransmissions_sent
                                for s in stats),
        }


# -- real UDP: EmulatedRing ------------------------------------------------------


class UdpWorkload:
    """A closed batch through a 4-node ``EmulatedRing`` on localhost UDP.

    The ring is started empty (that is the set-up), then ``batch``
    messages are submitted round-robin and the repetition ends when
    every node has delivered all of them.  Latency is measured on the
    calibrated CPU clock of the (single, pinned) CPU: wall time on this
    path is set by the interpreter's switch interval and the OS
    scheduler, and is kept only as a diagnostic.
    """

    deterministic = False
    name = "udp_agreed_jumbo"
    n_nodes = 4
    batch = 3000
    payload_size = 1350
    fixed_reps = 8
    timeout_s = 30.0

    def __init__(self) -> None:
        self.config = ProtocolConfig.accelerated(
            jumbo_datagram_bytes=DEFAULT_JUMBO_BYTES)

    def rep(self, seed: int, cal: Calibrator) -> Rep:
        out = Rep()
        rng = random.Random(seed)
        payloads = [
            b"%08d:" % i + rng.randbytes(self.payload_size - 9)
            for i in range(self.batch)
        ]

        window = cal.mark()
        ring = EmulatedRing(self.n_nodes, self.config)
        # Node threads inherit the signal mask: keep the calibration
        # timer's signal on the main thread, where its handler runs.
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            ring.start()
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
        out.setup = window.close()

        nodes = ring.nodes
        logs = {pid: [] for pid in nodes}
        cpu_stamps = {pid: [] for pid in nodes}
        wall_stamps = {pid: [] for pid in nodes}
        try:
            window = cal.mark()
            cpu0 = time.process_time() - cal.cpu_s
            wall0 = time.perf_counter()
            for i, payload in enumerate(payloads):
                ring.submit(i % self.n_nodes, payload)
            deadline = wall0 + self.timeout_s
            pending = set(nodes)
            while pending and time.perf_counter() < deadline:
                progress = False
                for pid in sorted(pending):
                    fresh = nodes[pid].drain_delivered()
                    if not fresh:
                        continue
                    progress = True
                    cpu_now = time.process_time() - cal.cpu_s - cpu0
                    wall_now = time.perf_counter() - wall0
                    logs[pid].extend(fresh)
                    cpu_stamps[pid].extend([cpu_now] * len(fresh))
                    wall_stamps[pid].extend([wall_now] * len(fresh))
                    if len(logs[pid]) >= self.batch:
                        pending.discard(pid)
                if not progress:
                    time.sleep(0.0005)
            out.run = window.close()
        finally:
            ring.stop()
        alive = [pid for pid, node in nodes.items() if node.is_alive()]
        if alive:
            out.problems.append("node threads still running: %r" % alive)

        self._check(ring, payloads, logs, out)
        out.measured["drain_wall_s"] = out.run.wall_s
        out.measured["cpu_per_wall"] = (
            out.run.work_cpu_s / out.run.wall_s if out.run.wall_s > 0 else 0.0)
        wall = sorted(t for stamps in wall_stamps.values() for t in stamps)
        if wall:
            out.measured["latency_p50_wall_s"] = percentile(wall, 0.50)
            out.measured["latency_p99_wall_s"] = percentile(wall, 0.99)
        # CPU-clock samples; the runner converts them to calibrated time.
        out.latencies = [t for stamps in cpu_stamps.values() for t in stamps]
        return out

    def _check(self, ring, payloads, logs, out: Rep) -> None:
        sequences = {pid: [m.payload for m in log] for pid, log in logs.items()}
        reference = max(sequences.values(), key=len)
        common = 0
        for index in range(min(len(s) for s in sequences.values())):
            if any(s[index] != reference[index] for s in sequences.values()):
                out.problems.append("nodes disagree at position %d" % index)
                break
            common = index + 1
        if sorted(reference) != sorted(payloads):
            out.problems.append("delivered set differs from the submitted batch")
        for pid, seq in sequences.items():
            if len(seq) != len(payloads):
                out.problems.append(
                    "node %d delivered %d of %d" % (pid, len(seq), len(payloads)))
        out.ordered = min(common, len(payloads))
        out.attempted = len(payloads)
        out.failed = len(payloads) - out.ordered
        nodes = ring.nodes.values()
        stats = [node.participant.stats for node in nodes]
        transports = [node.transport for node in nodes]
        out.counts = {
            "packets": common,
            "datagrams_sent": sum(t.datagrams_sent for t in transports),
            "datagrams_received": sum(t.datagrams_received for t in transports),
            "transport_drops": sum(t.datagrams_dropped for t in transports),
            "emu_tokens_resent": sum(node.tokens_resent for node in nodes),
            "tokens_handled": sum(s.tokens_handled for s in stats),
            "participant_calls": sum(_calls(s) for s in stats),
            "retransmissions": sum(s.retransmissions_sent for s in stats),
            "duplicates": sum(s.data_duplicates + s.duplicate_tokens
                              for s in stats),
            "packets_sent": sum(s.messages_initiated + s.retransmissions_sent
                                for s in stats),
        }


def _calls(stats) -> int:
    """``on_token`` plus ``on_data`` calls, from the participant's counters."""
    return (stats.tokens_handled + stats.duplicate_tokens
            + stats.data_received + stats.data_duplicates)


# -- membership under churn: SimEVSCluster ------------------------------------------


class _StampedLog(list):
    """An ``app_log`` that also records the sim time of each entry.

    ``EVSProcess`` only appends to and extends its log, so these two
    methods see every delivery.
    """

    __slots__ = ("sim", "stamps")

    def append(self, item) -> None:
        list.append(self, item)
        self.stamps.append(self.sim.now)

    def extend(self, items) -> None:
        before = len(self)
        list.extend(self, items)
        self.stamps.extend([self.sim.now] * (len(self) - before))


def _stamp(process, sim) -> None:
    log = _StampedLog(process.app_log)
    log.sim = sim
    log.stamps = [sim.now] * len(log)
    process.app_log = log


class ChurnWorkload:
    """16 gossip-detected EVS nodes, open-loop injectors, one crash cycle.

    Set-up builds the cluster and runs it until the boot ring forms.
    Then every node submits an Agreed message every ``interval_s`` of
    sim time (open loop: a node submits when due, whatever the ring is
    doing; a crashed node skips its turns), one seeded victim crashes,
    the survivors reconverge, the victim restarts and rejoins, and the
    injectors stop and drain.  Logs are EVS-checked afterwards.
    """

    deterministic = True
    name = "sim_churn_agreed"
    n_nodes = 16
    interval_s = 0.002
    fixed_reps = 6

    def __init__(self) -> None:
        self.config = ProtocolConfig.accelerated(personal_window=10,
                                                 accelerated_window=8)

    def rep(self, seed: int, cal: Calibrator) -> Rep:
        out = Rep()
        rng = random.Random(seed)
        window = cal.mark()
        cluster = SimEVSCluster(
            self.n_nodes, GIGABIT, LIBRARY, self.config, CHURN_TIMEOUTS,
            gossip=True, gossip_config=GossipConfig(), gossip_seed=seed,
        )
        _converge(cluster, out)
        out.setup = window.close()

        sim = cluster.sim
        for node in cluster.nodes.values():
            _stamp(node.process, sim)
        submitted: Dict[str, tuple] = {}
        stop = [False]
        interval = self.interval_s

        def injector(node, offset):
            yield Timeout(offset)
            count = 0
            while not stop[0]:
                if not node.crashed:
                    payload = "c%d.%d.%d" % (node.pid, node.incarnation, count)
                    count += 1
                    node.submit(payload)
                    submitted[payload] = (node.pid, sim.now)
                yield Timeout(interval * (1.0 + 0.05 * (rng.random() - 0.5)))

        for pid in sorted(cluster.nodes):
            sim.spawn(injector(cluster.nodes[pid], interval * rng.random()),
                      "inject%d" % pid)
        victim = rng.randrange(self.n_nodes)
        views_before = _regular_views(cluster)

        window = cal.mark()
        cluster.run_for(0.05)
        t0 = sim.now
        cluster.crash(victim)
        recovery = _converge(cluster, out) - t0
        cluster.run_for(0.05)
        t0 = sim.now
        cluster.restart(victim)
        _stamp(cluster.nodes[victim].process, sim)
        rejoin = _converge(cluster, out) - t0
        cluster.run_for(0.1)
        stop[0] = True
        cluster.run_for(0.05)
        out.run = window.close()

        survivors = [pid for pid in sorted(cluster.nodes) if pid != victim]
        check_window = cal.mark()
        checker = EVSChecker()
        final = {
            (pid, node.incarnation) for pid, node in cluster.nodes.items()
        }
        by_key: Dict[tuple, list] = {}
        for payload, (pid, _at) in submitted.items():
            incarnation = int(payload.split(".")[1])
            by_key.setdefault((pid, incarnation), []).append(payload)
        checker.check_logs(
            cluster.logs(),
            {key: value for key, value in by_key.items() if key in final},
        )
        out.check = check_window.close()
        for violation in checker.violations:
            out.problems.append("EVS: " + violation)

        delivered_sets = []
        for pid in survivors:
            log = cluster.nodes[pid].process.app_log
            seen = set()
            for entry, at in zip(log, log.stamps):
                payload = getattr(entry, "payload", None)
                if payload is None or payload not in submitted:
                    continue
                seen.add(payload)
                out.latencies.append(at - submitted[payload][1])
            delivered_sets.append(seen)
        everywhere = set.intersection(*delivered_sets)
        wanted = {p for p, (pid, _at) in submitted.items() if pid != victim}
        missing = wanted - everywhere
        if missing:
            out.problems.append(
                "%d survivor messages not delivered at every survivor"
                % len(missing))
        out.ordered = len(everywhere & wanted)
        out.attempted = len(wanted)
        out.failed = len(missing) + len(checker.violations)
        if not cluster.converged():
            out.problems.append("cluster did not reconverge")

        nodes = cluster.nodes.values()
        switch = cluster.switch
        sim_s = sim.now
        stats = [
            process.participant.stats
            for node in nodes
            for process in node.archived_processes + [node.process]
        ]
        out.counts = {
            "packets": out.ordered,
            "participant_calls": sum(_calls(s) for s in stats),
            "events": sim.event_count,
            "frames": switch.frames_received,
            "wire_bytes": sum(switch.class_bytes.values()),
            "drops": switch.total_drops()
            + sum(node.nic.drops_overflow for node in nodes),
            "ctrl_frames": sum(node.ctrl_frames_sent for node in nodes),
            "ctrl_bytes": sum(node.ctrl_bytes_sent for node in nodes),
            "node_seconds": self.n_nodes * sim_s,
            "views": _regular_views(cluster) - views_before,
            "faults": 2,
            "recovery_s": recovery,
            "rejoin_s": rejoin,
            "violations": len(checker.violations),
            "deliveries_checked": sum(
                len(log) for log in cluster.logs().values()),
        }
        return out


def _converge(cluster, out: Rep) -> float:
    """Run until one operational ring (checked every 1 ms of sim time).

    Returns the sim time it formed; a ring that does not form within
    8 s is recorded as a problem instead of ending the benchmark.
    """
    try:
        return cluster.run_until_converged(timeout_s=8.0, step_s=0.001)
    except RuntimeError as exc:
        out.problems.append(str(exc))
        return cluster.sim.now


def _regular_views(cluster) -> int:
    """Regular configurations installed, summed over every node's logs."""
    return sum(
        1
        for log in cluster.logs().values()
        for entry in log
        if isinstance(entry, ConfigChange)
        and entry.configuration.kind is ConfigurationKind.REGULAR
    )


def build(name: str):
    """The workload called ``name``, or ``None``."""
    if name == "sim_agreed_1g":
        return SimWorkload(
            name, GIGABIT, Service.AGREED, 1350, 800e6, inject_s=0.025,
            config=ProtocolConfig.accelerated(), fixed_reps=10,
        )
    if name == "sim_safe_small_jumbo":
        return SimWorkload(
            name, TEN_GIGABIT, Service.SAFE, 200, 4e9, inject_s=0.005,
            config=ProtocolConfig.accelerated(
                pack_messages=True, jumbo_datagram_bytes=DEFAULT_JUMBO_BYTES),
            fixed_reps=10,
        )
    if name == "udp_agreed_jumbo":
        return UdpWorkload()
    if name == "sim_churn_agreed":
        return ChurnWorkload()
    return None


NAMES = ("sim_agreed_1g", "sim_safe_small_jumbo", "udp_agreed_jumbo",
         "sim_churn_agreed")
