"""Lifecycle tracing: determinism, codec round-trips, and cross-checks.

Three layers:

* determinism — the same seeded sim run traced twice produces
  byte-identical ``.rtrace`` files (the trace is a pure function of the
  seed, like the event stream itself);
* codec properties — arbitrary ``TraceRecord`` streams survive the
  binary and JSONL flavors exactly (hypothesis);
* golden cross-check — ``analyze`` on a traced run must agree with the
  participants' own ``ParticipantStats`` counters on token-round
  counts, and its telescoping per-stage sums must reconcile with the
  end-to-end Agreed latency within the 1% gate.
"""

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ProtocolConfig
from repro.net import GIGABIT, BernoulliLoss
from repro.obs.lifecycle import (
    AUX_COALESCED,
    AUX_RETRANSMISSION,
    STAGE_COALESCED,
    STAGE_DELIVERED_AGREED,
    STAGE_DELIVERED_SAFE,
    STAGE_MULTICAST,
    STAGE_ORDERED,
    STAGE_ORIGINATED,
    STAGE_RECEIVED,
    STAGE_TOKEN_GRANTED,
    STAGE_TOKEN_HANDLED,
)
from repro.obs.report import analyze
from repro.sim import LIBRARY
from repro.sim.cluster import SimCluster
from repro.wire.tracefmt import (
    CLOCK_SIM,
    TRACE_WORLD_SIM,
    TraceReader,
    TraceRecord,
    TraceWriter,
    load_trace,
    write_jsonl,
)

EXAMPLES = settings(
    max_examples=int(os.environ.get("REPRO_WIRE_EXAMPLES", "25")),
    deadline=None,
)


def _traced_run(seed=1, n_nodes=4, duration_s=0.01, rate_bps=200e6):
    """Small seeded run with a lifecycle tracer; warmup 0, packing off."""
    config = ProtocolConfig.accelerated(
        personal_window=4, accelerated_window=2
    )
    cluster = SimCluster(n_nodes, GIGABIT, LIBRARY, config, seed=seed)
    tracer = cluster.attach_tracer(label="test seed=%d" % seed)
    cluster.inject_at_rate(rate_bps, duration_s)
    result = cluster.run(duration_s, 0.0, offered_bps=rate_bps)
    return cluster, result, tracer


# -- determinism -------------------------------------------------------------

def test_same_seed_gives_byte_identical_trace(tmp_path):
    _, _, first = _traced_run(seed=3)
    _, _, second = _traced_run(seed=3)
    assert len(first) == len(second) > 100
    path_a = first.write(str(tmp_path / "a.rtrace"))
    path_b = second.write(str(tmp_path / "b.rtrace"))
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        assert fa.read() == fb.read()


def test_different_seed_gives_different_trace():
    _, _, first = _traced_run(seed=3)
    _, _, second = _traced_run(seed=4)
    assert first.to_records() != second.to_records()


def test_tracer_does_not_perturb_the_run():
    config = ProtocolConfig.accelerated(
        personal_window=4, accelerated_window=2
    )

    def run(traced):
        cluster = SimCluster(4, GIGABIT, LIBRARY, config, seed=5)
        if traced:
            cluster.attach_tracer()
        cluster.inject_at_rate(200e6, 0.01)
        result = cluster.run(0.01, 0.0, offered_bps=200e6)
        return cluster.sim.event_count, result.latency.count

    assert run(traced=False) == run(traced=True)


# -- codec round-trips -------------------------------------------------------

records_strategy = st.lists(
    st.builds(
        TraceRecord,
        t=st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                    allow_infinity=False),
        stage=st.integers(0, 255),
        node=st.integers(-1, 2 ** 31 - 1),
        origin=st.integers(-1, 2 ** 31 - 1),
        seq=st.integers(0, 2 ** 32 - 1),
        aux=st.integers(0, 2 ** 32 - 1),
    ),
    max_size=50,
)


@EXAMPLES
@given(records=records_strategy, label=st.text(max_size=40))
def test_binary_trace_roundtrip(tmp_path_factory, records, label):
    path = str(tmp_path_factory.mktemp("rt") / "t.rtrace")
    with TraceWriter(path, TRACE_WORLD_SIM, CLOCK_SIM, label) as writer:
        for record in records:
            writer.write_record(record)
    reader = TraceReader(path)
    assert list(reader) == records
    assert reader.label == label
    assert not reader.truncated_tail


@EXAMPLES
@given(records=records_strategy, label=st.text(max_size=40))
def test_jsonl_trace_roundtrip(tmp_path_factory, records, label):
    path = str(tmp_path_factory.mktemp("rt") / "t.jsonl")
    with open(path, "w") as handle:
        write_jsonl(handle, records, TRACE_WORLD_SIM, CLOCK_SIM, label)
    loaded = load_trace(path)
    assert loaded.records == records
    assert loaded.label == label
    assert loaded.world_name == "sim"


def test_binary_and_jsonl_flavors_carry_identical_records(tmp_path):
    _, _, tracer = _traced_run()
    binary = tracer.write(str(tmp_path / "run.rtrace"))
    jsonl = tracer.write_jsonl(str(tmp_path / "run.jsonl"))
    a = load_trace(binary)
    b = load_trace(jsonl)
    assert a.records == b.records == tracer.to_records()
    assert a.label == b.label


def test_truncated_tail_is_detected_not_fatal(tmp_path):
    path = str(tmp_path / "t.rtrace")
    with TraceWriter(path, TRACE_WORLD_SIM, CLOCK_SIM) as writer:
        writer.write(1.0, STAGE_ORIGINATED, 0, 0, 1, 0)
        writer.write(2.0, STAGE_ORDERED, 0, 0, 1, 0)
    with open(path, "ab") as handle:
        handle.write(b"\x00" * 7)  # a crashed writer's partial record
    reader = TraceReader(path)
    records = list(reader)
    assert len(records) == 2
    assert reader.truncated_tail
    assert load_trace(path).truncated_tail


# -- golden cross-check ------------------------------------------------------

def test_trace_analysis_cross_checks_stats_and_latency():
    cluster, result, tracer = _traced_run(seed=1, duration_s=0.02)
    report = analyze(load_from_tracer(tracer))

    # Every delivery chain must be complete and telescope exactly.
    recon = report["reconciliation"]
    assert recon["chains"] == result.latency.count > 50
    assert recon["error_frac"] < 0.01  # the issue's acceptance gate
    assert recon["error_frac"] < 1e-9  # in the sim it is exact

    # End-to-end agreed latency from the trace == the latency recorder.
    agreed = report["end_to_end"]["agreed"]
    assert agreed["count"] == result.latency.count
    assert agreed["mean_s"] == pytest.approx(result.latency.mean_s, rel=1e-9)

    # Token-round counts match the participants' stats counters, which
    # are incremented apart from the probe call that stamps the trace.
    # (Packing is off, so the granted budget equals the initiations.)
    def stat(name):
        return sum(
            getattr(node.participant.stats, name)
            for node in cluster.nodes.values()
        )

    trace_rounds = report["token_rounds"]
    assert trace_rounds["handlings"] == stat("tokens_handled") > 0
    assert trace_rounds["post_token_sends"] == stat(
        "messages_sent_post_token"
    ) > 0
    assert trace_rounds["new_messages"] == stat("messages_initiated")
    assert trace_rounds["overlap_fraction"] == pytest.approx(
        stat("messages_sent_post_token") / stat("messages_initiated"),
        rel=1e-12,
    )


def test_stage_counts_are_consistent():
    cluster, result, tracer = _traced_run()
    counts = {}
    for record in tracer.to_records():
        counts[record.stage] = counts.get(record.stage, 0) + 1

    def stat(name):
        return sum(
            getattr(node.participant.stats, name)
            for node in cluster.nodes.values()
        )

    # Participant-side stages stamp at the exact point the matching
    # stats counter increments, so these are equalities.
    initiated = stat("messages_initiated")
    assert counts[STAGE_ORIGINATED] == initiated > 0
    assert counts[STAGE_TOKEN_GRANTED] == initiated
    assert counts[STAGE_RECEIVED] == stat("data_received")
    assert counts[STAGE_TOKEN_HANDLED] == stat("tokens_handled")

    # The delivery hook packs the ordered/delivered pair in one call,
    # and fires at the same instant the latency recorder samples.
    assert counts[STAGE_ORDERED] == (
        counts.get(STAGE_DELIVERED_AGREED, 0)
        + counts.get(STAGE_DELIVERED_SAFE, 0)
    )
    assert counts[STAGE_ORDERED] == result.latency.count

    # Driver-side stamps trail the participant stats by whatever was
    # still in flight when the sim clock ran out: bounded by one token
    # handling's send window per node and one delivery batch per node.
    slack = 4 * len(cluster.ring)
    retransmissions = stat("retransmissions_sent")
    assert 0 <= initiated + retransmissions - counts[STAGE_MULTICAST] <= slack
    assert 0 <= stat("delivered") - counts[STAGE_ORDERED] <= slack


def test_node_probe_has_no_instance_dict():
    # The slots lint skips classes whose base lives in another module,
    # so the per-node probe's complete slot layout is pinned here.
    from repro.obs.lifecycle import LifecycleTracer

    probe = LifecycleTracer(clock=lambda: 0.0).node_probe(1)
    assert not hasattr(probe, "__dict__")


def test_emulation_tracer_over_real_sockets(tmp_path):
    from repro.core import Service
    from repro.emulation import EmulatedRing

    ring = EmulatedRing(3)
    tracer = ring.attach_tracer(label="emu trace test")
    with ring:
        for pid in range(3):
            for i in range(5):
                ring.submit(pid, (pid, i), Service.AGREED)
        ring.collect_deliveries(expected_per_node=15, timeout_s=20.0)
    records = tracer.to_records()
    stages = {record.stage for record in records}
    assert STAGE_TOKEN_GRANTED in stages
    assert STAGE_MULTICAST in stages
    assert STAGE_RECEIVED in stages
    assert STAGE_ORDERED in stages
    assert STAGE_DELIVERED_AGREED in stages
    assert STAGE_TOKEN_HANDLED in stages
    # Wall-clock timestamps are epoch-relative and sane (threads stamp
    # concurrently, so the stream is not globally sorted — but every
    # stamp must land inside the run's wall-clock span).
    assert all(0.0 <= record.t < 60.0 for record in records)
    # Each delivery packs its ordered/delivered pair atomically, and
    # every node delivered all 15 messages.
    ordered = [r for r in records if r.stage == STAGE_ORDERED]
    delivered = [r for r in records if r.stage == STAGE_DELIVERED_AGREED]
    assert len(ordered) == len(delivered) >= 45
    # The analyzer accepts the wall-clock flavor end to end.
    path = tracer.write(str(tmp_path / "emu.rtrace"))
    report = analyze(load_trace(path))
    assert report["world"] == "emulation"
    assert report["clock"] == "wall"
    assert report["deliveries"] >= 45


@pytest.mark.parametrize("jumbo_bytes", [None, 8850])
def test_multicast_records_keep_the_retransmission_flag(jumbo_bytes):
    # Coalesced datagrams carry retransmissions too; each one's
    # multicast record must still say so.
    config = ProtocolConfig.accelerated(
        personal_window=4, accelerated_window=2,
        jumbo_datagram_bytes=jumbo_bytes,
    )
    cluster = SimCluster(4, GIGABIT, LIBRARY, config, seed=1,
                         loss=BernoulliLoss(0.02, seed=1))
    tracer = cluster.attach_tracer()
    cluster.inject_at_rate(400e6, 0.01)
    cluster.run(0.01, 0.0, offered_bps=400e6)
    sent = sum(node.participant.stats.retransmissions_sent
               for node in cluster.nodes.values())
    flagged = sum(
        1 for record in tracer.to_records()
        if record.stage == STAGE_MULTICAST
        and record.aux & AUX_RETRANSMISSION
    )
    assert sent > 0
    assert flagged == sent


def test_emulation_coalesced_records_are_per_datagram():
    # 1350-byte messages: at most six fit one 8850-byte jumbo, so no
    # coalesced record may claim a larger group, and exactly the
    # messages in real jumbos are marked coalesced.
    from repro.emulation import EmulatedRing

    config = ProtocolConfig.accelerated(jumbo_datagram_bytes=8850)
    ring = EmulatedRing(4, config)
    tracer = ring.attach_tracer(label="emu jumbo trace test")
    with ring:
        for i in range(400):
            ring.submit(i % 4, b"%08d:" % i + bytes(1341))
        ring.collect_deliveries(expected_per_node=400, timeout_s=60.0)
    records = tracer.to_records()
    coalesced = [r for r in records if r.stage == STAGE_COALESCED]
    assert coalesced
    assert max(record.aux for record in coalesced) <= 6
    marked = sum(1 for r in records
                 if r.stage == STAGE_MULTICAST and r.aux & AUX_COALESCED)
    assert marked == len(coalesced)


def load_from_tracer(tracer):
    """An in-memory LoadedTrace (no file round-trip needed)."""
    from repro.wire.tracefmt import LoadedTrace

    return LoadedTrace(
        world_name="sim", clock_name="sim", label=tracer.label,
        records=tracer.to_records(), truncated_tail=False,
    )
