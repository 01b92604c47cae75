# Developer entry points. `make ci` is the gate every change must pass;
# .github/workflows/ci.yml runs the same targets in the same order, one
# workflow step each.

CARGO ?= cargo

.PHONY: ci fmt lint lint-invariants sanitize-smoke build test bench bench-smoke bench-bless prof-report report quick-report determinism-smoke scenario-smoke perf-gate serve serve-smoke

ci: fmt lint lint-invariants build test determinism-smoke prof-report perf-gate scenario-smoke serve-smoke sanitize-smoke

fmt:
	$(CARGO) fmt --all --check

lint:
	$(CARGO) clippy --workspace --all-targets -- -D warnings

# Workspace invariant linter (rperf-lint, DESIGN.md §5): token rules
# D1-D4 and D6-D9 plus the interprocedural rules I1, I2 and I4 over the
# workspace call graph, configured by the checked-in lint.toml. --ci additionally
# writes LINT_report.json (machine-readable diagnostics) for the CI
# artifact next to BENCH_report.json.
lint-invariants:
	$(CARGO) run --release -q -p rperf-lint -- --ci

# Two figure sweeps with the sim-sanitizer feature's runtime invariant
# checks (packet conservation, credit bounds, event-time monotonicity,
# one armed wire wake per RNIC): fig 4 for the latency probes, fig 5 for
# the line-rate bulk flows, where a duplicate-wake storm would show.
# Dev profile on purpose: the checks are debug_assert!-based.
sanitize-smoke:
	$(CARGO) run -q -p rperf-bench --bin figure --features sim-sanitizer -- --fig 4 --quick > /dev/null
	$(CARGO) run -q -p rperf-bench --bin figure --features sim-sanitizer -- --fig 5 --quick > /dev/null

build:
	$(CARGO) build --release --workspace

test:
	$(CARGO) test -q --workspace

bench:
	$(CARGO) bench --workspace

# Regenerates EXPERIMENTS.md + BENCH_report.json at full effort.
report:
	$(CARGO) run --release -p rperf-bench --bin report -- --jobs $(shell nproc)

quick-report:
	$(CARGO) run --release -p rperf-bench --bin report -- --quick --jobs $(shell nproc)

# CI smoke: report on the reduced (--quick) point set, single job for
# determinism, then the switch-layer microbench race (AoS vs SoA buffer
# scans at 8/36/64 ports). Fails if any packet handle leaks;
# BENCH_report.json is uploaded as a workflow artifact.
bench-smoke:
	$(CARGO) run --release -p rperf-bench --bin report -- --quick --jobs 1
	$(CARGO) bench -p rperf-switch --bench soa_scan

# Re-blesses the perf baseline: discards BENCH_baseline.json and
# rebuilds it as the per-figure slowest wall time over BLESS_RUNS quick
# report runs (each figure inside a run is already best-of-N, see
# `timed` in report.rs; the slowest run across N bounds the scheduler
# noise between runs). Run after an intentional perf change, then commit
# the file.
BLESS_RUNS ?= 3
bench-bless:
	rm -f BENCH_baseline.json
	for i in $$(seq $(BLESS_RUNS)); do \
		$(CARGO) run --release -p rperf-bench --bin report -- --quick --jobs 1 --bless; \
	done

# Per-event-kind dispatch attribution (sim-prof feature). All outputs
# are redirected to /tmp — the profiled run's wall times are perturbed
# by the counters and must never feed the committed report or the gate —
# and only the BENCH_prof.json sidecar is copied back for the CI
# artifact upload.
prof-report:
	$(CARGO) run --release -p rperf-bench --features sim-prof --bin report -- --quick --jobs 1 --prof --out /tmp/rperf_prof_experiments.md
	cp /tmp/BENCH_prof.json BENCH_prof.json

# Determinism smoke: the reduced report at --jobs 1 and --jobs 4 must
# produce byte-identical EXPERIMENTS.md text (sweep parallelism is an
# execution strategy, never part of the result).
determinism-smoke:
	$(CARGO) run --release -p rperf-bench --bin report -- --quick --jobs 1 --out /tmp/serial.md
	$(CARGO) run --release -p rperf-bench --bin report -- --quick --jobs 4 --out /tmp/parallel.md
	diff /tmp/serial.md /tmp/parallel.md

# Perf-regression gate: rerun the reduced report single-job and fail if
# any figure (or the total) takes more than 10% longer in wall-clock
# time than the committed BENCH_baseline.json (sub-second figures get a
# noise-widened tolerance; see report.rs). Re-bless after an intentional
# perf change with `make bench-bless`.
perf-gate:
	$(CARGO) run --release -p rperf-bench --bin report -- --quick --jobs 1 --gate 10

# CI smoke for scenario spec files (DESIGN.md §4.1, §4.2):
#  1. every committed example scenario runs end-to-end from its spec
#     file alone and emits valid JSON;
#  2. `--dump-routes` prints byte-identical per-switch tables on
#     repeated invocations for both fat-tree examples — routing is
#     planned deterministically, never discovered at run time;
#  3. typed exit codes: missing file -> 3 (I/O); an unknown header key
#     -> 2 (spec parse) with a line-numbered diagnostic on stderr, also
#     for the retired `shards` key; the retired `--shards` flag -> 1
#     (usage).
SCENARIOS = chain_gaming incast_8 fanout_30 fattree_incast fattree_victim
CLI = $(CARGO) run --release -q -p rperf-cli --
scenario-smoke:
	for s in $(SCENARIOS); do \
		$(CLI) scenario examples/scenarios/$$s.scn --json | python3 -m json.tool > /dev/null || exit 1; \
	done
	for s in fattree_incast fattree_victim; do \
		$(CLI) scenario examples/scenarios/$$s.scn --dump-routes > /tmp/rperf_$${s}_routes_a.txt && \
		$(CLI) scenario examples/scenarios/$$s.scn --dump-routes > /tmp/rperf_$${s}_routes_b.txt && \
		cmp /tmp/rperf_$${s}_routes_a.txt /tmp/rperf_$${s}_routes_b.txt || exit 1; \
	done
	$(CLI) scenario /nonexistent/missing.scn 2>/dev/null; test $$? -eq 3
	printf 'name = "x"\nbogus_key = 1\n' > /tmp/rperf_smoke_bad.scn
	$(CLI) scenario /tmp/rperf_smoke_bad.scn 2>/tmp/rperf_smoke_bad.err; test $$? -eq 2
	grep -q 'line 2' /tmp/rperf_smoke_bad.err
	printf 'shards = 2\n[topology]\nkind = "direct_pair"\n' > /tmp/rperf_smoke_retired.scn
	$(CLI) scenario /tmp/rperf_smoke_retired.scn 2>/tmp/rperf_smoke_retired.err; test $$? -eq 2
	grep -q 'line 1: `shards` is not a valid key' /tmp/rperf_smoke_retired.err
	$(CLI) scenario examples/scenarios/incast_8.scn --shards 2 >/dev/null 2>&1; test $$? -eq 1

# Runs the scenario service in the foreground on the default port
# (stop it with `rperf-cli serve-stats --shutdown`).
serve:
	$(CARGO) run --release -p rperf-serve

# CI smoke for the serving layer: wire-protocol property tests, the
# deterministic chaos suite (worker panic, truncated/stalled clients,
# overload shedding, budget deadlines, drain), and 200 concurrent
# submissions against a live server with injected faults, asserting
# typed responses, cache hits, and byte-identical outcomes.
serve-smoke:
	$(CARGO) test -q --release -p rperf-serve --test proto_prop --test chaos --test smoke

# The historical per-figure binaries (fig4 … fig13) are aliases onto the
# single `figure` binary: `make fig7`, `make fig13 ARGS="--quick"`.
fig%:
	$(CARGO) run --release -p rperf-bench --bin figure -- --fig $* $(ARGS)
