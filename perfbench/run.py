"""The repository's benchmark: one command, four workloads, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload sim_agreed_1g --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it stamps the host.  Records and span dumps go to ``.perfbench/``.

Workloads (``workloads.py``):

* ``sim_agreed_1g`` -- packet-level sim, 8 nodes, 1G link, ``library``
  profile, default accelerated config, Agreed 1350-B messages open-loop
  at 800 Mbps for 25 ms of sim time per repetition.  Network-bound
  (paper Fig. 1); exercises ``net/*``, ``sim/node``, ``core/*``;
  bypasses packing, coalescing, the wire codec and membership.
* ``sim_safe_small_jumbo`` -- the same sim on 10G with Safe delivery,
  200-B payloads, packing and 8850-B jumbo coalescing, open-loop at
  4 Gbps for 5 ms per repetition.  Below saturation; per-message work
  in ``sim/node``, ``sim/latency``, ``core/packing`` and the Safe path.
* ``udp_agreed_jumbo`` -- a 4-node ``EmulatedRing`` on localhost UDP,
  Agreed 1350-B messages, 8850-B jumbos, a closed batch of 3000
  messages per repetition.  The only workload through ``wire/codec``,
  ``emulation/transport`` and ``emulation/node``.
* ``sim_churn_agreed`` -- 16-node ``SimEVSCluster`` with gossip
  detection, per-node Agreed injectors open-loop every 2 ms of sim
  time, one seeded crash and restart per repetition, EVS-checked.  The
  only workload through ``membership/*`` and ``sim/evs_node``.

How a run works.  The process pins itself to one CPU (the UDP ring's
threads then hand the interpreter lock over on one core instead of
spinning across two).  A run is a sequence of short repetitions.  The
first ``fixed_reps`` use seeds derived from ``--seed``; the run then
cycles through them again until ``--seconds`` of wall time have passed.
CPU is calibrated (``calibration.py``): a fixed pure-Python loop runs in
slices interleaved with the work every 10 ms, and each
repetition's CPU is scaled by the loop speed measured inside it.

End-to-end metrics (``--trace 0``), every one on every workload:

* ``ordered_msgs_per_cal_s`` -- application messages delivered in the
  same total order at every node, per calibrated CPU-second of the whole
  process (all threads), median over repetitions.
* ``latency_p50_us``, ``latency_p999_us`` -- submit-to-delivery, one
  sample per (node, message).  On the sim workloads this is the sim
  clock, exact for a seed; the figure is the median over the fixed
  repetitions of each one's percentile.  On UDP it is the calibrated CPU
  time from submitting the batch until the node delivered the message
  (wall time there is set by the scheduler, not the program), median
  over all repetitions.  p99.9 is the highest percentile with at least
  ten samples beyond it in every repetition; the count is reported as
  ``sim.latency.samples``.  On churn the tail is set by messages that
  came due while the ring was reforming, which is how this workload's
  time without service reaches an end-to-end metric.
* ``setup_s`` -- calibrated CPU-seconds from construction to the first
  submission (the sim cluster; the UDP sockets and threads; the churn
  cluster including its boot convergence), median over repetitions.
* ``peak_rss_mb`` -- peak resident memory of the process.

Crash recovery (``membership.recovery_ms``, the worst sim-clock time from
a crash until every live node shares one operational ring) has no
meaning on the three workloads without faults, and an end-to-end metric
has to be printed for every workload, so it is a per-layer figure.

Per-layer metrics (``--trace 1``) come from a run in two parts: half of
``--seconds`` untraced, then the fixed repetitions once more, traced,
with wrappers around each layer's entry points (``spans.py``).  Counts
come from the program's own counters over the traced repetitions (and,
for calls the program does not count, from the wrappers); on the sim
they are exact for a seed, and the run fails its own check if a
repeated seed -- traced or not -- does not reproduce every count and
sim-clock latency bit for bit.  Layers a workload bypasses report 0.

Noise sources this design removes, each of which made an earlier
benchmark of this code too noisy to gate: raw ``process_time`` (host
speed moved it 27%; now calibrated), UDP threads free to run on two CPUs
(now pinned), a single sub-millisecond ``setup_s`` sample (now a median
over repetitions) and the UDP ring's wall-clock latency as a gated
metric (now a diagnostic).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

# The script's own directory is first on sys.path.
from calibration import REF_STEPS_PER_S, SLICE_STEPS, Calibrator
from spans import SpanTracer, install_layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _median(values):
    return statistics.median(values) if values else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def _pin():
    """Pin the process to its lowest allowed CPU; returns (before, cpu)."""
    before = sorted(os.sched_getaffinity(0))
    cpu = before[0]
    os.sched_setaffinity(0, {cpu})
    return before, cpu


def _run_reps(workload, cal, seed, budget_s):
    """The fixed repetitions, then more of the same seeds until budget."""
    seeds = [seed * 100 + i for i in range(workload.fixed_reps)]
    reps = []
    start = time.perf_counter()
    while (len(reps) < len(seeds)
           or time.perf_counter() - start < budget_s):
        rep_seed = seeds[len(reps) % len(seeds)]
        rep = workload.rep(rep_seed, cal)
        if workload.deterministic:
            rep.condense(1e6)  # sim seconds
        else:
            # CPU seconds of the pinned process, calibrated.
            speed = rep.run.speed(_ratio(cal.steps, cal.cpu_s))
            rep.condense(1e6 * speed / REF_STEPS_PER_S)
        reps.append((rep_seed, rep))
    return reps


def _signature(rep):
    """What a deterministic repetition must reproduce exactly."""
    return (rep.ordered, rep.attempted, rep.failed,
            tuple(sorted(rep.counts.items())),
            rep.samples, rep.latency_sum, rep.p50_us, rep.p999_us)


class Summary:
    """Figures derived from a list of (seed, Rep)."""

    def __init__(self, reps, fallback_speed, deterministic, fixed):
        self.reps = [rep for _seed, rep in reps]
        self.fallback = fallback_speed
        run_cal = [rep.run.cal_s(fallback_speed) for rep in self.reps]
        self.rates = [_ratio(rep.ordered, c) for rep, c in zip(self.reps, run_cal)]
        self.cal_per_msg = [_ratio(c, rep.ordered)
                            for rep, c in zip(self.reps, run_cal)]
        self.raw_rates = [_ratio(rep.ordered, rep.run.work_cpu_s)
                          for rep in self.reps]
        self.setups = [rep.setup.cal_s(fallback_speed) for rep in self.reps]
        # A deterministic seed's latencies are exact, so only the fixed
        # repetitions count: how often a seed repeats depends on the host.
        latency_reps = [
            rep for rep in (self.reps[:fixed] if deterministic else self.reps)
            if rep.samples
        ]
        self.p50 = _median([rep.p50_us for rep in latency_reps])
        self.p999 = _median([rep.p999_us for rep in latency_reps])
        self.samples = min((rep.samples for rep in latency_reps), default=0)
        self.speed = _ratio(sum(r.run.loop_steps for r in self.reps),
                            sum(r.run.loop_cpu_s for r in self.reps))

    def total(self, key):
        return sum(rep.counts.get(key, 0) for rep in self.reps)

    @property
    def ordered(self):
        return sum(rep.ordered for rep in self.reps)


def _check_reps(name, reps, deterministic, problems):
    first = {}
    for rep_seed, rep in reps:
        for problem in rep.problems:
            problems.append("%s seed %d: %s" % (name, rep_seed, problem))
        if not deterministic:
            continue
        signature = _signature(rep)
        if rep_seed not in first:
            first[rep_seed] = signature
        elif first[rep_seed] != signature:
            problems.append(
                "%s seed %d: a repeat did not reproduce the counts and "
                "sim-clock latencies of its first run" % (name, rep_seed))


def _end_to_end(untraced):
    return {
        "ordered_msgs_per_cal_s": _median(untraced.rates),
        "latency_p50_us": untraced.p50,
        "latency_p999_us": untraced.p999,
        "setup_s": _median(untraced.setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _per_layer(workload, untraced, traced, tracer, host):
    self_s, calls, extra = tracer.totals()
    ordered = traced.ordered
    speed = traced.speed or traced.fallback

    def cal_us(*spans):
        seconds = sum(self_s.get(span, 0.0) for span in spans)
        return _ratio(seconds * speed / REF_STEPS_PER_S * 1e6, ordered)

    def per_msg(value):
        return _ratio(value, ordered)

    total = traced.total
    reps = traced.reps
    recoveries = [rep.counts["recovery_s"] * 1e3 for rep in reps
                  if "recovery_s" in rep.counts]
    checks = [rep.check for rep in reps if rep.check is not None]
    check_cal = sum(m.cal_s(traced.fallback) for m in checks)
    measured = untraced.reps

    def measured_median(key, scale=1.0):
        return _median([rep.measured[key] * scale for rep in measured
                        if key in rep.measured])

    return {
        "net.engine.events_per_msg": per_msg(total("events")),
        "net.engine.residual_cal_us_per_msg": cal_us("net.engine"),
        "net.switch.frames_per_msg": per_msg(total("frames")),
        "net.switch.wire_bytes_per_msg": per_msg(total("wire_bytes")),
        "net.switch.drops": total("drops"),
        "net.switch.self_cal_us_per_msg": cal_us("net.switch"),
        "net.nic.self_cal_us_per_msg": cal_us("net.nic"),
        "sim.node.socket_drops": total("socket_drops"),
        "sim.node.tokens_resent": total("sim_tokens_resent"),
        "sim.latency.self_cal_us_per_msg": cal_us("sim.latency"),
        "sim.latency.samples": untraced.samples,
        "core.participant.calls_per_msg": per_msg(total("participant_calls")),
        "core.participant.tokens_per_msg": per_msg(total("tokens_handled")),
        "core.participant.retransmissions_per_msg": per_msg(total("retransmissions")),
        "core.participant.duplicates": total("duplicates"),
        "core.participant.self_cal_us_per_msg": cal_us("core.participant"),
        "core.packing.msgs_per_packet": _ratio(ordered, total("packets")),
        "core.packing.self_cal_us_per_msg": cal_us("core.packing"),
        "core.coalesce.packets_per_datagram": _ratio(
            total("packets_sent"),
            total("data_datagrams") + extra.get("data_multicasts", 0)),
        "core.coalesce.self_cal_us_per_msg": cal_us("core.coalesce"),
        "wire.codec.encodes_per_sent_msg": _ratio(
            extra.get("data_encodes", 0), total("packets_sent")),
        "wire.codec.decodes_per_datagram": _ratio(
            calls.get("wire.codec.decode", 0), total("datagrams_received")),
        "wire.codec.bytes_per_msg": per_msg(extra.get("encoded_bytes", 0)),
        "wire.codec.encode_cal_us_per_msg": cal_us("wire.codec.encode"),
        "wire.codec.decode_cal_us_per_msg": cal_us("wire.codec.decode"),
        "emulation.transport.datagrams_sent_per_msg": per_msg(total("datagrams_sent")),
        "emulation.transport.polls_per_msg": per_msg(
            calls.get("emulation.transport.poll", 0)),
        "emulation.transport.empty_poll_share": _ratio(
            extra.get("empty_polls", 0), calls.get("emulation.transport.poll", 0)),
        "emulation.transport.drops": total("transport_drops"),
        "emulation.transport.send_cal_us_per_msg": cal_us("emulation.transport.send"),
        "emulation.transport.poll_cal_us_per_msg": cal_us("emulation.transport.poll"),
        "emulation.node.tokens_resent": total("emu_tokens_resent"),
        "emulation.node.cpu_per_wall": measured_median("cpu_per_wall"),
        "emulation.node.drain_wall_ms": measured_median("drain_wall_s", 1e3),
        "emulation.node.latency_p50_wall_us": measured_median("latency_p50_wall_s", 1e6),
        "emulation.node.latency_p99_wall_us": measured_median("latency_p99_wall_s", 1e6),
        "membership.ctrl_frames_per_node_s": _ratio(total("ctrl_frames"),
                                                    total("node_seconds")),
        "membership.ctrl_bytes_per_node_s": _ratio(total("ctrl_bytes"),
                                                   total("node_seconds")),
        "membership.views_installed": total("views"),
        "membership.views_per_fault": _ratio(total("views"),
                                             total("faults") * workload.n_nodes),
        "membership.ticks_per_msg": per_msg(calls.get("membership.tick", 0)),
        "membership.recovery_ms": max(recoveries, default=0.0),
        "membership.recovery_median_ms": _median(recoveries),
        "membership.self_cal_us_per_msg": cal_us(
            "membership.tick", "membership.evs", "membership.gossip"),
        "evs.checker.violations": total("violations"),
        "evs.checker.cal_us_per_delivery": _ratio(
            check_cal * 1e6, total("deliveries_checked")),
        "obs.trace_overhead": _ratio(_median(traced.cal_per_msg),
                                     _median(untraced.cal_per_msg)),
        "host.cal_loop_s": host["cal_loop_s"],
        "host.raw_ordered_msgs_per_cpu_s": host["raw_ordered_msgs_per_cpu_s"],
        "host.nproc": host["nproc"],
        "host.affinity_cpus": len(host["affinity_before"]),
    }


def main(argv=None) -> int:
    args = _parse(argv)
    with open(ROOT / "BENCHMARK.json") as handle:
        declared = json.load(handle)
    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: no src/repro next to %s; run it from a full "
              "checkout of the repository" % HERE, file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    workload = workloads.build(args.workload)
    if workload is None:
        print("perfbench: unknown workload %r (one of %s)"
              % (args.workload, ", ".join(workloads.NAMES)), file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    affinity_before, cpu = _pin()
    cal = Calibrator()
    problems = []
    tracer = None
    cal.start()
    try:
        budget = args.seconds / 2 if args.trace else args.seconds
        untraced_reps = _run_reps(workload, cal, args.seed, budget)
        traced_reps = []
        if args.trace:
            tracer = SpanTracer()
            cal.on_slice = tracer.exclude
            install_layers(tracer)
            try:
                # Exactly the fixed repetitions, so that every count the
                # wrappers make covers the same seeds on any host.
                traced_reps = _run_reps(workload, cal, args.seed, 0.0)
            finally:
                tracer.uninstall()
                cal.on_slice = None
    finally:
        cal.stop()

    fallback = _ratio(cal.steps, cal.cpu_s)
    deterministic = workload.deterministic
    fixed = workload.fixed_reps
    _check_reps(args.workload, untraced_reps + traced_reps, deterministic,
                problems)
    untraced = Summary(untraced_reps, fallback, deterministic, fixed)
    host = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity_before": affinity_before,
        "pinned_cpu": cpu,
        "cal_loop_s": _ratio(cal.cpu_s * SLICE_STEPS, cal.steps),
        "cal_slice_steps": SLICE_STEPS,
        "cal_steps_per_s": fallback,
        "raw_ordered_msgs_per_cpu_s": _median(untraced.raw_rates),
    }
    if args.trace:
        traced = Summary(traced_reps, fallback, deterministic, fixed)
        values = _per_layer(workload, untraced, traced, tracer, host)
        declared_metrics = declared["per_layer"]
    else:
        values = _end_to_end(untraced)
        declared_metrics = declared["end_to_end"]
    beyond = untraced.samples - 1 - int(0.999 * untraced.samples)
    if beyond < 10:
        problems.append("a repetition has %d latency samples, %d beyond "
                        "p99.9; it needs 10" % (untraced.samples, beyond))

    names = [metric["name"] for metric in declared_metrics]
    if sorted(names) != sorted(values):
        print("perfbench: computed metrics %s do not match BENCHMARK.json %s"
              % (sorted(values), sorted(names)), file=sys.stderr)
        return 3
    metrics = {
        metric["name"]: {"value": float(values[metric["name"]]),
                         "unit": metric["unit"]}
        for metric in declared_metrics
    }
    every = untraced_reps + traced_reps
    result = {
        "correct": not problems,
        "attempted": sum(rep.attempted for _seed, rep in every),
        "failed": sum(rep.failed for _seed, rep in every),
        "metrics": metrics,
    }

    OUT_DIR.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "host": host,
        "repetitions": len(untraced_reps), "traced_repetitions": len(traced_reps),
        "problems": problems, "result": result,
    }
    with open(OUT_DIR / (stem + ".json"), "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    if tracer is not None:
        tracer.dump(str(OUT_DIR / (stem + ".spans.jsonl")))
    for problem in problems[:20]:
        print("problem: " + problem, file=sys.stderr)
    print(json.dumps({"host": host}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
