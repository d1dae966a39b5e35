PYTHON ?= python
export PYTHONPATH := src

SUITES := crash replication sharding exhaustion recovery

.PHONY: test test-fast properties lint ruff bench obs-bench server-smoke perf-smoke sims fsck-smoke audit all

all: test lint

test:
	$(PYTHON) -m pytest -x -q

test-fast:
	$(PYTHON) -m pytest -x -q --ignore=tests/properties

properties:
	$(PYTHON) -m pytest -x -q tests/properties

# static analysis over everything we ship: the stdlib and every example
lint:
	$(PYTHON) -m repro lint --stdlib
	@set -e; for f in examples/*.tl; do \
		echo "lint $$f"; \
		$(PYTHON) -m repro lint $$f; \
	done

# ruff is optional tooling; the config lives in pyproject.toml
ruff:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests scripts; \
	else \
		echo "ruff not installed; skipping (config in pyproject.toml)"; \
	fi

# boot the daemon as a subprocess and drive it with concurrent clients
# (transactional commits, code-cache hits, one PGO round, graceful shutdown);
# scratch outputs land in the ignored artifacts/ directory
server-smoke:
	$(PYTHON) scripts/server_smoke.py --image artifacts/server-smoke.tyc --trace artifacts/server-smoke-trace.ndjson

# the repository's benchmark (perf/, BENCHMARK.json) at about a second per
# workload, then its own tests: it imports the client library and boots
# `python -m repro serve`, so a client or CLI refactor that breaks it must
# fail here, not in the frozen benchmark run
perf-smoke:
	$(PYTHON) perf/run.py --smoke
	$(PYTHON) -m pytest -q perf/tests

# one chaos suite (crash, replication, sharding, exhaustion, recovery —
# docs/durability.md tabulates what each injects and asserts): the sweep
# must pass, then the suite's negative control — the same check with the
# protection under test switched off — MUST fail, or the detector is blind
sim-%:
	$(PYTHON) scripts/sim.py --suite $* --json $*-sim-report.json
	! $(PYTHON) scripts/sim.py --suite $* --negative-control

sims: $(addprefix sim-,$(SUITES))

# integrity-check the image the server smoke test leaves behind
fsck-smoke: server-smoke
	$(PYTHON) -m repro fsck artifacts/server-smoke.tyc --json fsck-report.json -v

# whole-image semantic audit of the server-smoke image: verify + abstractly
# interpret every stored function over the call graph and refresh the
# persisted analysis-fact cache (see docs/analysis.md); then the negative
# control — one flipped bit in a stored PTML blob must turn the audit red
audit: server-smoke
	$(PYTHON) -m repro audit artifacts/server-smoke.tyc --json audit-report.json -v
	$(PYTHON) scripts/audit_negative_control.py --json audit-negative-control.json

# experiment benchmarks, then the machine-readable artifacts
# (BENCH_vm.json / BENCH_opt.json / BENCH_server.json / BENCH_shard.json /
# BENCH_analysis.json / BENCH_obs.json / BENCH_recovery.json, schema docs
# in docs/observability.md, docs/analysis.md, docs/sharding.md and
# docs/recovery.md)
bench:
	$(PYTHON) -m pytest benchmarks -q
	$(PYTHON) -m repro bench --scale 0.3 --artifacts .
	$(PYTHON) scripts/server_bench.py --json BENCH_server.json
	$(PYTHON) scripts/shard_bench.py --json BENCH_shard.json
	$(PYTHON) scripts/analysis_bench.py --json BENCH_analysis.json
	$(PYTHON) scripts/obs_bench.py --json BENCH_obs.json
	$(PYTHON) scripts/recovery_bench.py --json BENCH_recovery.json

# the observability gate on its own: fails when always-on metrics cost
# more than 5% over metrics-disabled (see docs/observability.md)
obs-bench:
	$(PYTHON) scripts/obs_bench.py --json BENCH_obs.json
