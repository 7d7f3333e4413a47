# Convenience entry points; see docs/performance.md for the benchmark story,
# docs/serving.md for the explanation-serving subsystem and docs/scaling.md
# for the process-parallel batch executor.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-parallel bench bench-core bench-smoke bench-check \
	serve serve-smoke bench-service bench-service-check \
	bench-parallel bench-parallel-check bench-compiled bench-compiled-check \
	bench-durability bench-durability-check bench-obs bench-obs-check \
	bench-delta bench-delta-check bench-resilience bench-resilience-check \
	bench-fleet bench-fleet-check soak-smoke

test:
	$(PYTHON) -m pytest -x -q

# The same tier-1 suite with every engine sharding batches across 2 worker
# processes (the CI matrix's second entry).
test-parallel:
	REX_PARALLELISM=2 $(PYTHON) -m pytest -x -q

# Boot the HTTP/JSON explanation server on the demo KB (blocking).
serve:
	$(PYTHON) -m repro.cli serve --demo --warmup

# CI smoke: boot on an ephemeral port, hit /healthz + one /explain, shut down.
serve-smoke:
	$(PYTHON) -m repro.cli serve --demo --smoke --warmup

# Serving-layer benchmark; writes BENCH_pr2.json (cold vs warm throughput).
bench-service:
	$(PYTHON) -m benchmarks --service-only --output BENCH_pr2.json

# Fresh serving run checked against the committed record (>2x fails).
bench-service-check:
	$(PYTHON) -m benchmarks --service-only \
		--output bench_service_fresh.json --check BENCH_pr2.json

# Full benchmark suite; writes BENCH_pr1.json (paper-sized fig11 sampling).
bench:
	REX_BENCH_GLOBAL_SAMPLES=100 $(PYTHON) -m benchmarks --output BENCH_pr1.json

# Only the fig7/fig11 benchmarks the PR-1 performance work targets.
bench-core:
	REX_BENCH_GLOBAL_SAMPLES=100 $(PYTHON) -m benchmarks --core-only --output BENCH_pr1.json

# CI-sized pass: small knobs, compare against the committed record.
bench-smoke:
	$(PYTHON) -m benchmarks --smoke --core-only --output bench_smoke.json

# Fresh paper-sized run checked against the committed record (>2x fails).
bench-check:
	REX_BENCH_GLOBAL_SAMPLES=100 $(PYTHON) -m benchmarks --core-only \
		--output bench_fresh.json --check BENCH_pr1.json

# Scale-out batch benchmark; writes BENCH_pr3.json (sequential vs sharded
# batches over a >=50k edge repro.workloads KB).
bench-parallel:
	$(PYTHON) -m benchmarks --parallel-only --output BENCH_pr3.json

# CI gate: fresh run asserting the 2x critical-path floor on the 8-item
# batch (see docs/scaling.md for the floor's exact definition).
bench-parallel-check:
	REX_BENCH_PARALLEL_FLOOR=2.0 $(PYTHON) -m benchmarks --parallel-only \
		--output bench_parallel_fresh.json

# Compiled-core benchmark; writes BENCH_pr4.json (snapshot format 1 vs format
# 2 build+restore on the ~52k-edge clustered workload KB — see
# docs/performance.md).  The committed record also holds the retired
# dict-vs-compiled fig7/fig11 rows; a fresh run records the snapshot row only.
bench-compiled:
	$(PYTHON) -m benchmarks --compiled-only --output BENCH_pr4.json

# CI gate: fresh run asserting the 5x snapshot build+restore floor (format 1
# replay vs format 2 buffers).
bench-compiled-check:
	REX_BENCH_SNAPSHOT_FLOOR=5.0 \
		$(PYTHON) -m benchmarks --compiled-only --output bench_compiled_fresh.json

# Durable-tier cold-boot benchmark; writes BENCH_pr6.json (checkpoint mmap
# load vs TSV reload + full compile vs SQLite replay, on the ~52k-edge
# clustered workload KB — see docs/durability.md).
bench-durability:
	$(PYTHON) -m benchmarks --durability-only --output BENCH_pr6.json

# CI gate: fresh run asserting the 5x cold-boot floor (checkpoint load vs
# TSV reload + compile).
bench-durability-check:
	REX_BENCH_DURABILITY_FLOOR=5.0 $(PYTHON) -m benchmarks --durability-only \
		--output bench_durability_fresh.json

# Observability overhead benchmark; writes BENCH_pr7.json (engine workloads
# with tracing disabled vs armed at the default 1-in-100 sample rate, plus a
# sample trace dump — see docs/observability.md).
bench-obs:
	$(PYTHON) -m benchmarks --obs-only --output BENCH_pr7.json

# CI gate: fresh run asserting tracing stays within a 5% overhead budget on
# every scenario (enumeration, distributional ranking, warm cache hits).
bench-obs-check:
	REX_BENCH_OBS_MAX_OVERHEAD=0.05 $(PYTHON) -m benchmarks --obs-only \
		--output bench_obs_fresh.json

# Delta-overlay benchmark; writes BENCH_pr8.json (warm read set interleaved
# with 1%-edge write batches on the clustered workload KB — see
# docs/serving.md for the overlay/scoped-invalidation story).
bench-delta:
	$(PYTHON) -m benchmarks --delta-only --output BENCH_pr8.json

# CI gate: fresh run asserting overlay-sized writes never trigger a full
# recompile (kb_compiles stays at 1) and scoped invalidation retains at
# least 50% of the cache under 1%-edge writes.
bench-delta-check:
	REX_BENCH_DELTA_MIN_RETENTION=0.5 $(PYTHON) -m benchmarks --delta-only \
		--output bench_delta_fresh.json

# Request-lifecycle resilience benchmark; writes BENCH_pr9.json (deadline
# checkpoint overhead on the fig7/fig11 shapes + availability under injected
# worker-pool kills at Zipf load — see docs/robustness.md).
bench-resilience:
	$(PYTHON) -m benchmarks --resilience-only --output BENCH_pr9.json

# CI gate: fresh run asserting <=3% deadline-checkpoint overhead with
# byte-identical answers, >=99% availability under chaos and zero batches
# past deadline+grace.
bench-resilience-check:
	REX_BENCH_RESILIENCE_MAX_OVERHEAD=0.03 \
	REX_BENCH_RESILIENCE_MIN_AVAILABILITY=0.99 \
		$(PYTHON) -m benchmarks --resilience-only \
		--output bench_resilience_fresh.json

# Replica-fleet benchmark; writes BENCH_pr10.json (availability + p99 with
# one replica SIGSTOPped mid-run, byte-identity against a sequential engine,
# and a rolling restart under live load — see docs/robustness.md).
bench-fleet:
	$(PYTHON) -m benchmarks --fleet-only --output BENCH_pr10.json

# CI gate: fresh run asserting >=99% availability with a gray-failed
# replica, stalled-phase p99 <= max(3x healthy p99, 1s floor), answers
# byte-identical to sequential, and a zero-failure rolling restart.
bench-fleet-check:
	REX_BENCH_FLEET_MIN_AVAILABILITY=0.99 \
	REX_BENCH_FLEET_MAX_P99X=3.0 \
		$(PYTHON) -m benchmarks --fleet-only \
		--output bench_fleet_fresh.json

# Chaos soak (~30s): Zipf traffic with periodic whole-pool SIGKILLs and KB
# writes, asserting bounded latency drift and RSS growth (tests/soak.py).
# Duration/rate/summary are env-tunable: REX_SOAK_S, REX_SOAK_RPS,
# REX_SOAK_SUMMARY (CI archives the summary JSON as an artifact).
soak-smoke:
	$(PYTHON) tests/soak.py --duration $${REX_SOAK_S:-30}
