# Convenience targets for the Accelerated Ring reproduction.

PYTHON ?= python

.PHONY: install test test-fast lint bench bench-full bench-smoke bench-guard perfbench-smoke campaign-smoke churn-smoke multiring-smoke obs-smoke wire-fuzz-smoke examples figures clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/ -q

test-fast:
	$(PYTHON) -m pytest tests/ -q -x --ignore=tests/test_properties.py \
		--ignore=tests/test_properties_model.py \
		--ignore=tests/test_packing_properties.py

# Repo-specific static analysis (repro.analysis): determinism,
# sans-IO boundary, __slots__ completeness and wire-drift lints over
# src/repro, gated against the committed lint_baseline.json.  Fails on
# any non-baselined finding and writes the JSON report CI uploads as
# an artifact.  This is what CI runs.
lint:
	$(PYTHON) -m repro.cli lint src/repro \
		--baseline lint_baseline.json \
		--json bench_results/fresh/lint_report.json

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -q

bench-full:
	REPRO_BENCH_FULL=1 $(PYTHON) -m pytest benchmarks/ --benchmark-only -q

# Fast sanity pass: tier-1 tests + the kernel-throughput and codec
# microbenchmarks (bench_results/kernel.json, codec.json).  This is
# what CI runs.
bench-smoke:
	$(PYTHON) -m pytest tests/ -q
	$(PYTHON) -m pytest benchmarks/test_kernel_events_per_sec.py -q
	$(PYTHON) -m pytest benchmarks/test_codec_throughput.py -q
	@cat bench_results/kernel.json bench_results/codec.json

# Regression guard: regenerate the kernel, codec and observability
# records into a scratch directory and compare against the committed
# baselines in bench_results/; any guarded metric more than 20% below
# its baseline fails.  This is what CI runs.
bench-guard:
	rm -rf bench_results/fresh
	REPRO_BENCH_RESULTS=bench_results/fresh \
		$(PYTHON) -m pytest benchmarks/test_kernel_events_per_sec.py \
		benchmarks/test_codec_throughput.py \
		benchmarks/test_obs_overhead.py \
		benchmarks/test_multiring_scaling.py -q
	$(PYTHON) -m repro.cli churn --sweep \
		--out bench_results/fresh/churn_convergence.json
	$(PYTHON) -m repro.bench.guard --baseline bench_results \
		--fresh bench_results/fresh

# Benchmark smoke: every perfbench workload for one second, traced, so
# a driver refactor that breaks a name perfbench/spans.py wraps fails
# here.  run.py exits 0 even when a check fails, so the last line of its
# output (the JSON result) must say correct with no failed operations.
# This is what CI runs.
PERFBENCH_WORKLOADS = sim_agreed_1g sim_safe_small_jumbo udp_agreed_jumbo \
	sim_churn_agreed

perfbench-smoke:
	@for workload in $(PERFBENCH_WORKLOADS); do \
		echo "== $$workload =="; \
		$(PYTHON) perfbench/run.py --workload $$workload --seed 1 \
			--seconds 1 --trace 1 | tail -n 1 | $(PYTHON) -c \
			'import json, sys; r = json.loads(sys.stdin.read()); \
			print("correct=%s failed=%s" % (r["correct"], r["failed"])); \
			sys.exit(not (r["correct"] is True and r["failed"] == 0))' \
			|| exit 1; \
	done

# Small seeded fault-injection campaign: crashes, partitions, token
# drops and loss swaps against accelerated and original-Ring configs;
# exits non-zero (leaving repro files in bench_results/campaigns/) on
# any EVS violation.  This is what CI runs.
campaign-smoke:
	$(PYTHON) -m repro.cli campaign --seed 1 --scenarios 4 --quiet
	@ls bench_results/campaigns/

# Gossip-membership churn smoke: the detector unit/fuzz suites, the
# simulated churn-campaign smoke test, and one EVS-checked 50-node
# endurance scenario (sustained crash/restart churn plus a flapping
# node) via the CLI.  Exits non-zero on any EVS violation or
# convergence failure.  This is what CI runs.
churn-smoke:
	$(PYTHON) -m pytest tests/test_gossip.py tests/test_churn_campaign.py -q
	$(PYTHON) -m repro.cli churn --nodes 50 --seed 1

# Multi-ring sharding smoke: the merge/partition/checker unit and
# property suites plus the packet-level M=2 sim test, then an M={1,2}
# scaling sweep via the CLI, which runs the per-ring EVS oracles and
# the cross-ring merge checker on every point and exits non-zero on
# any ordering violation.  The scaling record lands in
# bench_results/fresh/ so CI can upload it.  This is what CI runs.
multiring-smoke:
	$(PYTHON) -m pytest tests/test_multiring_partition.py \
		tests/test_multiring_merge.py tests/test_multiring_wire.py \
		tests/test_multiring_sim.py -q
	$(PYTHON) -m repro.cli multiring --ms 1,2 \
		--out bench_results/fresh/multiring_smoke.json
	$(PYTHON) -m repro.cli report --multiring

# Observability smoke: the obs unit/property suites, then the full
# artifact loop — a seeded traced run writes the reference trace and
# metrics snapshot into a scratch directory, and both CLI renderers
# must exit 0 over them.  This is what CI runs.
obs-smoke:
	$(PYTHON) -m pytest tests/test_obs_registry.py tests/test_obs_trace.py \
		tests/test_metrics_conservation.py -q
	rm -rf bench_results/fresh/obs
	$(PYTHON) -m repro.cli obs-sample --out-dir bench_results/fresh/obs
	$(PYTHON) -m repro.cli trace-analyze \
		bench_results/fresh/obs/sim_sample.rtrace
	$(PYTHON) -m repro.cli report bench_results/fresh/obs/metrics_sample.json

# Bounded fuzz pass over the wire codec: the hypothesis property suites
# at a raised example budget, plus the live-daemon malformed-datagram
# spray.  On failure hypothesis leaves shrunk repros in .hypothesis/,
# which CI uploads as an artifact.  This is what CI runs.
wire-fuzz-smoke:
	REPRO_WIRE_EXAMPLES=200 $(PYTHON) -m pytest tests/test_wire_fuzz.py \
		tests/test_wire_roundtrip.py tests/test_wire_codec.py -q

figures:
	$(PYTHON) -m repro.cli all

examples:
	for script in examples/*.py; do \
		echo "== $$script =="; \
		$(PYTHON) $$script || exit 1; \
	done

clean:
	rm -rf bench_results .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
