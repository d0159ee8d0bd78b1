#!/bin/sh
# CI gate. Usage: ci.sh [tier1|tier2|all]
#
#   tier1  fast gate: formatting, build, tests, race tests
#   tier2  deep gate: vet, fuzz smoke, benchmark module tests, chaos gate, end-to-end smokes
#   all    both (default)
set -eu

tier="${1:-all}"

run_tier1() {
	echo "== gofmt =="
	out="$(gofmt -l .)"
	if [ -n "$out" ]; then
		echo "gofmt needed:"
		echo "$out"
		exit 1
	fi

	echo "== one unsafe file =="
	# The block wire's byte view (internal/blockstore/byteview.go) is the
	# only non-test file allowed to import unsafe.
	test "$(grep -rl --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build '"unsafe"' . | wc -l)" -eq 1 ||
		{ echo '"unsafe" must be imported by exactly one non-test file'; exit 1; }

	echo "== one serving chassis =="
	# The servers share one lifecycle (internal/serverkit: signals, the
	# pprof/expvar listener, the http.Server) and one Prometheus
	# exposition (internal/obs); internal/telemetry was folded into obs.
	if grep -lE '"os/signal"|"net/http/pprof"|"expvar"|http\.Server' cmd/*/main.go; then
		echo 'cmd/*/main.go must leave signals, pprof, expvar and http.Server to internal/serverkit'
		exit 1
	fi
	if grep -rl --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build '# TYPE' . | grep -v '^\./internal/obs/'; then
		echo 'only internal/obs may write Prometheus "# TYPE" lines'
		exit 1
	fi
	test ! -e internal/telemetry || { echo 'internal/telemetry must not exist'; exit 1; }

	echo "== one pushdown path =="
	# Predicates are counted by the selection walker in query.go
	# (Count(Predicate)); the CountEqual* entry points and root scan.go
	# are gone, and a probe literal is parsed by btrblocks.ParseEq alone.
	if grep -rnE --include='*.go' --exclude-dir=.bench_build '\bCountEqual' .; then
		echo 'no Go file may use a CountEqual* identifier: count through btrblocks.Count'
		exit 1
	fi
	test ! -e scan.go || { echo 'root scan.go must not exist'; exit 1; }
	if grep -rnE --include='*.go' 'strconv\.ParseInt\(value\b|ParseFloat\(value\b' internal/blockstore internal/cluster internal/smoke; then
		echo 'parse probe literals with btrblocks.ParseEq'
		exit 1
	fi

	echo "== go build =="
	go build ./...

	echo "== go test =="
	go test ./...

	echo "== go test -race =="
	# Promoted from tier 2: the blockstore's retry/quarantine paths and
	# the cache are concurrency-heavy, so races gate every change. -short
	# skips only the full experiments sweep, which re-runs library code
	# the other packages already race-test but takes most of an hour under
	# the race detector.
	go test -race -short -timeout 30m ./...

	echo "== spans smoke =="
	# End-to-end crash safety plus cross-process tracing: btringest
	# spawns a child server, SIGKILLs it mid-append, restarts it, and
	# verifies the published chunks hold exactly the acknowledged rows;
	# it then drives one trace ID through append → WAL → flush →
	# publish → invalidate into a second span-recording server and
	# asserts /v1/spans continuity on both sides. btrserved's smoke
	# validates its own span store and exemplar links the same way.
	make spans-smoke

	echo "== cluster smoke =="
	# Replicated serving: btrrouted scatter-gathers a 3-node cluster
	# (R=2), a byte-flipped replica must fail over and heal via
	# cross-replica repair, a SIGKILLed node must not fail any in-flight
	# scan, and hedged requests must beat a latency-skewed replica.
	# Its smoke also routes a /v1/query plan (leaf scatter + bitmap
	# gather) and re-runs one degraded against the damaged replica.
	make cluster-smoke

	echo "== query smoke =="
	# Query-engine correctness: the differential oracle sweep (random
	# plans over every column type and scheme mix vs a
	# decompress-everything reference), the NULL three-valued-logic
	# matrix, /v1/query's status-code contract on a single node (plan
	# errors 400, missing column 404, corrupt block 422, never 5xx,
	# sidecar pruning live), and cluster scatter-gather equivalence with
	# a damaged replica. The serving smokes above exercise the same
	# engine end to end over HTTP.
	make query-smoke
}

run_tier2() {
	echo "== go vet =="
	go vet ./...

	echo "== fuzz smoke =="
	# Each fuzz target runs for a fixed short budget on top of the
	# committed seed corpora in testdata/fuzz/.
	make fuzz-smoke

	echo "== bench smoke =="
	# A brief pass of the decode suite, the §6.4 one- and two-worker rows
	# included, against BENCH_decode.json at a 50 % tolerance: the
	# benchmarks cannot bit-rot and a gross regression fails early.
	make bench-smoke

	echo "== bench regression gate =="
	# Re-run the decode, compress and serve suites against the committed
	# BENCH_decode.json / BENCH_compress.json / BENCH_serve.json
	# baselines; >10% throughput regression on any fails.
	# BTR_BENCH_TOLERANCE=0.25 loosens the gate (fraction), and
	# BTR_BENCH_SKIP=1 skips it (e.g. on hosts unlike the baseline's).
	if [ "${BTR_BENCH_SKIP:-0}" = "1" ]; then
		echo "skipped (BTR_BENCH_SKIP=1)"
	else
		make bench-compare
	fi

	echo "== benchmark module tests =="
	# bench/ is a module of its own (BENCHMARK.json runs it through
	# bench/run.sh), so `go test ./...` above never builds it: run its
	# tests here so a root API change cannot break it unseen.
	(cd bench && go test ./...)

	echo "== chaos gate =="
	# Fault-injection suite: seeded corruption of every container format
	# must be detected, and the served degradation paths must hold.
	make chaos

	echo "== serve smoke =="
	# End-to-end: btrserved serves a generated corpus on a loopback port
	# (debug/pprof server included) and every endpoint — blocks,
	# predicates, traces, metrics — is verified against direct in-process
	# decompression.
	go run ./cmd/btrserved -smoke

	echo "== trace smoke =="
	# The decision-trace CLI must emit a schema-valid trace for the
	# checked-in testdata (see OBSERVABILITY.md for the schema).
	make trace-smoke

	echo "== ingest bench smoke =="
	# Single-shot the ingestion benchmarks (rows/s vs batch size,
	# group-commit scaling) so the harness cannot bit-rot.
	make ingest-bench
}

case "$tier" in
tier1) run_tier1 ;;
tier2) run_tier2 ;;
all)
	run_tier1
	run_tier2
	;;
*)
	echo "usage: ci.sh [tier1|tier2|all]" >&2
	exit 2
	;;
esac

echo "ci: $tier checks passed"
