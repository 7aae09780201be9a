"""Golden fingerprints: the hot-path optimizations must not move a bit.

Each scenario runs a small canonical simulation and folds *everything
observable* into one SHA-256 — every latency sample, every per-node
protocol counter, every switch/NIC drop counter, the exact kernel event
count and final simulated time.  The expected digests were computed
before the zero-copy/coalescing/kernel rewrites landed; if any of those
changes alters a single float anywhere in a run, the digest moves and
this test names the scenario that diverged.

This is the same gate PR 1 used for the first kernel fast-path: the
optimizations are allowed to make the simulator *faster*, never
*different*.  When a deliberate semantic change lands (new default, new
event source), recompute the digests by calling each scenario builder in
``SCENARIOS`` and pasting the new values, and justify the diff in the
commit message.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core import ProtocolConfig, Service
from repro.net import GIGABIT, TEN_GIGABIT
from repro.sim import DAEMON, LIBRARY, SPREAD
from repro.sim.cluster import SimCluster


def _digest_cluster(cluster: SimCluster) -> str:
    """Deterministic digest of one finished run's full observable state."""
    h = hashlib.sha256()
    emit = h.update

    def line(*parts) -> None:
        emit(" ".join(repr(p) for p in parts).encode("ascii"))
        emit(b"\n")

    line("now", cluster.sim.now)
    line("events", cluster.sim.event_count)
    line("switch", cluster.switch.frames_received,
         cluster.switch.drops_partition, cluster.switch.drops_fault)
    for host_id in cluster.switch.host_ids:
        port = cluster.switch.port(host_id)
        line("port", host_id, port.frames_forwarded, port.bytes_forwarded,
             port.drops_overflow, port.drops_injected, port.max_queue_bytes)
    for pid in sorted(cluster.nodes):
        node = cluster.nodes[pid]
        s = node.participant.stats
        line("node", pid, s.tokens_handled, s.duplicate_tokens,
             s.messages_initiated, s.messages_sent_pre_token,
             s.messages_sent_post_token, s.retransmissions_sent,
             s.retransmissions_requested, s.data_received,
             s.data_duplicates, s.delivered, s.discarded,
             node.backlog, node.participant.local_aru,
             node.participant.delivered_upto, node.socket_drops,
             node.tokens_resent, node.nic.drops_overflow)
    recorder = cluster.recorder
    for node_id in sorted(recorder.delivered_bytes):
        line("delivered", node_id, recorder.delivered_bytes[node_id],
             recorder.delivered_messages[node_id])
    for service in sorted(recorder._samples, key=lambda s: s.value):
        samples = recorder._samples[service]
        line("samples", service.value, len(samples))
        for sample in samples:
            line("s", sample)
    return h.hexdigest()


def _run(config, profile, spec, payload_size, service, offered_bps,
         duration_s=0.06, warmup_s=0.02, seed=7) -> str:
    cluster = SimCluster(
        8, spec, profile, config,
        payload_size=payload_size, service=service, seed=seed,
    )
    cluster.inject_at_rate(offered_bps, duration_s)
    cluster.run(duration_s, warmup_s, offered_bps=offered_bps)
    return _digest_cluster(cluster)


#: scenario name -> (builder, expected SHA-256).
SCENARIOS = {
    "accelerated_agreed_1g": (
        lambda: _run(
            ProtocolConfig.accelerated(personal_window=15, accelerated_window=10),
            SPREAD, GIGABIT, 1350, Service.AGREED, 400e6,
        ),
        "c4e3479e51b639cee31bf6bb060c79016c24ec04b7834f68897fb472546c627f",
    ),
    "original_safe_1g": (
        lambda: _run(
            ProtocolConfig.original_ring(personal_window=15),
            DAEMON, GIGABIT, 1350, Service.SAFE, 250e6,
        ),
        "1e370bfba2d5f83de5bb5a41b7fc8f7f60df45a2e09a6004ba27145fac8450dd",
    ),
    "accelerated_packed_small_10g": (
        lambda: _run(
            ProtocolConfig.accelerated(
                personal_window=20, accelerated_window=12, pack_messages=True,
            ),
            LIBRARY, TEN_GIGABIT, 200, Service.AGREED, 600e6,
        ),
        "d46a904afa8f4cf886d463446b73096590dbfcffeb1cb00f009c5dbe845096ad",
    ),
    "accelerated_large_payload_10g": (
        lambda: _run(
            ProtocolConfig.accelerated(personal_window=10, accelerated_window=6),
            LIBRARY, TEN_GIGABIT, 8850, Service.AGREED, 1500e6,
        ),
        "33ea9ffff4b53f14b9d14f30b996f228788bedfb356e2454ed8e4b4d5e8274c8",
    ),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_fingerprint(name):
    build, expected = SCENARIOS[name]
    digest = build()
    assert digest == expected, (
        "scenario %r fingerprint changed: got %s — a hot-path change "
        "altered observable simulation results" % (name, digest)
    )


# -- lifecycle trace stream ----------------------------------------------------

def _trace_digests(tmp_path, jumbo_bytes, offered_bps):
    """SHA-256 of one seeded run's ``.rtrace`` bytes and trace-analyze JSON.

    The ``tests/test_obs_trace.py`` run shape (4 nodes, LIBRARY, warmup
    0, packing off); ``jumbo_bytes`` switches on datagram coalescing so
    the ``coalesced`` stage is stamped too.
    """
    import json

    from repro.obs.report import analyze
    from repro.wire.tracefmt import load_trace

    config = ProtocolConfig.accelerated(
        personal_window=4, accelerated_window=2,
        jumbo_datagram_bytes=jumbo_bytes,
    )
    cluster = SimCluster(4, GIGABIT, LIBRARY, config, seed=1)
    tracer = cluster.attach_tracer(label="golden seed=1")
    cluster.inject_at_rate(offered_bps, 0.01)
    cluster.run(0.01, 0.0, offered_bps=offered_bps)
    path = tracer.write(str(tmp_path / "golden.rtrace"))
    with open(path, "rb") as handle:
        raw = handle.read()
    # Rendered exactly as ``python -m repro.cli trace-analyze --json``.
    report = json.dumps(analyze(load_trace(path)), indent=2, sort_keys=True)
    return (
        hashlib.sha256(raw).hexdigest(),
        hashlib.sha256(report.encode("utf-8")).hexdigest(),
    )


#: variant -> ((jumbo bytes, offered bps), (rtrace SHA-256, analysis SHA-256)).
TRACE_SCENARIOS = {
    "plain": (
        (None, 200e6),
        ("d6d037aa201e0099acd61f683b8ccc7345dbfc46b47c7290c9f6807549b0020d",
         "6a8ab050d5278e4f7996cb8b6beb4319f10c7f97ce2cf3cc358c805bb51dd736"),
    ),
    "jumbo": (
        (8850, 800e6),
        ("10c9410a85b8976a2fa93f07ed7dba4dbb2ebad5b2af7926ec709d4b0ac1a2ff",
         "0f967b1c27a1eb7611ad972cea88da8e623fd9346800e97d96b7c127643d48fc"),
    ),
}


@pytest.mark.parametrize("name", sorted(TRACE_SCENARIOS))
def test_golden_trace(name, tmp_path):
    (jumbo_bytes, offered_bps), expected = TRACE_SCENARIOS[name]
    digests = _trace_digests(tmp_path, jumbo_bytes, offered_bps)
    assert digests == expected, (
        "trace scenario %r changed: got %s — observation altered the "
        "trace stream or the analysis" % (name, digests)
    )
