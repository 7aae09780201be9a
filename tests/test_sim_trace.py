"""Token-round statistics from the lifecycle trace — and through them,
the paper's central mechanism: acceleration shortens token rounds by
overlapping sending with token passing.

Every number here is ``trace-analyze``'s ``token_rounds`` section over a
``SimCluster.attach_tracer()`` trace.
"""

from repro.core import ProtocolConfig
from repro.net import GIGABIT
from repro.obs.report import analyze
from repro.sim import LIBRARY, SPREAD, SimCluster
from repro.wire.tracefmt import LoadedTrace


def token_rounds(tracer):
    """``trace-analyze``'s token-round section of an in-memory trace."""
    trace = LoadedTrace(
        world_name="sim", clock_name="sim", label=tracer.label,
        records=tracer.to_records(), truncated_tail=False,
    )
    return analyze(trace)["token_rounds"]


def traced_run(config, offered_mbps=500, duration_s=0.06, profile=SPREAD):
    cluster = SimCluster(8, GIGABIT, profile, config)
    tracer = cluster.attach_tracer()
    cluster.inject_at_rate(offered_mbps * 1e6, duration_s)
    cluster.run(duration_s, warmup_s=0.0, offered_bps=offered_mbps * 1e6)
    return token_rounds(tracer)


ACCEL = ProtocolConfig.accelerated(personal_window=20, accelerated_window=15)
ORIG = ProtocolConfig.original_ring(personal_window=20)


def test_round_times_recorded_for_every_node():
    rounds = traced_run(ACCEL)
    assert sorted(rounds["per_node"]) == [str(pid) for pid in range(8)]
    for stats in rounds["per_node"].values():
        assert stats["count"] > 10
        assert 0 < stats["min_round_s"] <= stats["mean_round_s"] \
            <= stats["max_round_s"]


def test_acceleration_shortens_rounds():
    # The core claim of the paper, measured directly: at the same load,
    # the accelerated token completes rounds much faster.
    accel = traced_run(ACCEL, offered_mbps=600)
    orig = traced_run(ORIG, offered_mbps=600)
    assert accel["mean_round_s"] < orig["mean_round_s"] * 0.6, (
        accel["mean_round_s"], orig["mean_round_s"],
    )


def test_overlap_fraction_reflects_window():
    accel = traced_run(ACCEL, offered_mbps=600)
    orig = traced_run(ORIG, offered_mbps=600)
    assert orig["overlap_fraction"] == 0.0  # original never sends post-token
    assert accel["overlap_fraction"] > 0.5  # most sends overlap the token


def test_round_time_grows_with_load():
    light = traced_run(ACCEL, offered_mbps=100)
    heavy = traced_run(ACCEL, offered_mbps=800)
    assert heavy["mean_round_s"] > light["mean_round_s"]


def test_stats_empty_when_node_never_handles():
    cluster = SimCluster(2, GIGABIT, LIBRARY, ACCEL)
    tracer = cluster.attach_tracer()
    # Never started: no handlings recorded.
    rounds = token_rounds(tracer)
    assert rounds["per_node"] == {}
    assert rounds["handlings"] == 0
    assert rounds["mean_round_s"] == 0.0
    assert rounds["overlap_fraction"] == 0.0
