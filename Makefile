GO ?= go

.PHONY: all build test race vet fmt check bench bench-smoke bench-baseline bench-compare ci serve-smoke trace-smoke ingest-smoke ingest-bench spans-smoke cluster-smoke chaos fuzz-smoke query-smoke loc

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race uses -short to skip the full experiments sweep (it re-runs the
# same library code the other packages already race-test, but takes
# most of an hour under the race detector).
race:
	$(GO) test -race -short -timeout 30m ./...

vet:
	$(GO) vet ./...

# fmt fails if any file is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# serve-smoke starts btrserved on a generated corpus (debug server
# included) and verifies every endpoint against direct in-process
# decompression.
serve-smoke:
	$(GO) run ./cmd/btrserved -smoke

# ingest-smoke is the end-to-end crash-safety gate for the ingestion
# service: btringest spawns itself as a child on a loopback port, kills
# it with SIGKILL mid-append, restarts it, and verifies that the
# published chunks decode to exactly the acknowledged rows.
ingest-smoke:
	$(GO) run ./cmd/btringest -smoke

# cluster-smoke is the replicated-serving chaos gate: btrrouted places a
# generated corpus over three child node processes with R=2, verifies
# every file scans bit-correct through the router, flips a byte on one
# replica (scans must stay correct while the repair loop heals it),
# SIGKILLs a node mid-scan (scans must keep completing off the
# survivors), and proves hedged requests fire and win against a
# latency-skewed replica — all visible in /metrics and /v1/spans.
cluster-smoke:
	$(GO) run ./cmd/btrrouted -smoke

# spans-smoke is the end-to-end tracing gate: both server smokes assert
# their /v1/spans endpoints. btrserved validates its recorded server
# spans and telemetry exemplar links; btringest drives one trace ID
# across two processes (append → WAL → flush → cascade compress →
# atomic publish → invalidate → serve) and asserts both span stores
# return the trace with parent/child links intact.
spans-smoke: serve-smoke ingest-smoke
	@echo "spans smoke: OK"

# ingest-bench single-shots the ingestion benchmarks (rows/s vs batch
# size, group-commit scaling, flush+publish) so the harness cannot
# bit-rot; nothing is timed.
ingest-bench:
	$(GO) test -run '^$$' -bench 'BenchmarkAppend|BenchmarkFlushPublish' -benchtime 1x ./internal/ingest/
	@echo "ingest bench: OK"

# trace-smoke runs the decision-trace CLI on the checked-in testdata and
# validates the output against the schema documented in OBSERVABILITY.md.
trace-smoke:
	$(GO) run ./cmd/btrblocks trace -schema int,int64,double,string -block 800 -validate testdata/trace_smoke.csv > /dev/null
	@echo "trace smoke: OK"

# chaos is the fault-injection gate: seeded single-byte corruption of
# every container format must be detected (the v2 checksum story), the
# faultfs injectors must behave deterministically, and the blockstore's
# quarantine/retry/partial-scan degradation paths must hold.
chaos:
	$(GO) test -run 'Chaos|Corruption|Truncation|LegacyV1' .
	$(GO) test ./internal/faultfs/
	$(GO) test -run 'Quarantine|ClientRetr|ClientDoes|AttemptTimeout|RawFetchDetects' ./internal/blockstore/
	@echo "chaos gate: OK"

# query-smoke is the query-engine gate: the differential oracle suite
# (random plans vs a decompress-everything reference), the NULL
# three-valued-logic matrix, selection-vector flow, the /v1/query
# endpoint contract on one node (status codes, sidecar pruning, corrupt
# blocks), and the cluster scatter-gather equivalence + failover tests.
query-smoke:
	$(GO) test -run 'TestOracle|TestNullSemantics|TestSelection|TestAgg|TestPlan' ./internal/query/
	$(GO) test -run 'TestQueryEndpoint' ./internal/blockstore/
	$(GO) test -run 'TestQueryScatterGather|TestQueryHTTPFailover' ./internal/cluster/
	$(GO) test -run 'TestAddRange' ./internal/roaring/
	@echo "query smoke: OK"

# fuzz-smoke runs every fuzz target for a short fixed budget on top of
# the committed seed corpora in testdata/fuzz/. Continuous fuzzing uses
# the same targets without the -fuzztime bound.
FUZZ_TARGETS = \
	.:FuzzDecompressColumn .:FuzzDecompressIntStream .:FuzzDecompressStringStream \
	.:FuzzCompressIntRoundTrip .:FuzzStreamReader \
	./internal/query/:FuzzQueryPlan \
	./internal/fsst/:FuzzFSSTEncodeEquivalence \
	./internal/blockstore/:FuzzDecodeBlockFrame
FUZZ_TIME ?= 10s
fuzz-smoke:
	@for pt in $(FUZZ_TARGETS); do \
		pkg=$${pt%%:*}; t=$${pt##*:}; \
		echo "fuzz $$t ($(FUZZ_TIME))"; \
		$(GO) test -run '^$$' -fuzz "^$$t$$" -fuzztime $(FUZZ_TIME) $$pkg || exit 1; \
	done
	@echo "fuzz smoke: OK"

# loc prints non-test, non-generated Go lines per package and in total —
# the number ROADMAP aim 2 is judged by. The benchmark's build directory
# is not source.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' \
		| xargs grep -L '^// Code generated .* DO NOT EDIT' \
		| xargs wc -l | awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; all += $$1 } \
			END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", all }' | sort -k2

# check is the full gate: format, vet, build, tests (incl. race), and
# the end-to-end smoke tests. ci.sh splits the same steps into a fast
# tier 1 (fmt, build, test, race) and a deep tier 2 (vet, fuzz smoke,
# chaos gate, smokes).
check: fmt vet build test race chaos query-smoke fuzz-smoke serve-smoke trace-smoke ingest-smoke cluster-smoke

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-smoke runs the decode suite — the per-scheme grid, the kernels,
# DecompressColumn and the one- and two-worker rows of the parallel decode
# and scan benchmarks (§6.4) — briefly through benchtraj against
# BENCH_decode.json. It is the cheap form of bench-compare: a benchmark
# that no longer builds, runs or parses fails it, and so does a row at half
# its recorded speed (a second worker that buys nothing is one).
bench-smoke:
	$(GO) run ./cmd/benchtraj compare -suite decode -benchtime 0.1s -count 3 -retries 1 -tolerance 0.5
	@echo "bench smoke: OK"

# bench-baseline re-measures the suites (per-scheme grid + kernel
# microbenchmarks, decode and compress side; the block wire's encode,
# decode and loopback fetch) and snapshots them to BENCH_decode.json,
# BENCH_compress.json and BENCH_serve.json. Run it on the reference host
# after an intentional perf change and commit the result; PERFORMANCE.md
# documents the schema and workflow.
bench-baseline:
	$(GO) run ./cmd/benchtraj record -suite decode
	$(GO) run ./cmd/benchtraj record -suite compress
	$(GO) run ./cmd/benchtraj record -suite serve

# bench-compare re-runs the same suites and fails on >10% regression
# against the committed baselines (override: BTR_BENCH_TOLERANCE=0.25).
bench-compare:
	$(GO) run ./cmd/benchtraj compare -suite decode
	$(GO) run ./cmd/benchtraj compare -suite compress
	$(GO) run ./cmd/benchtraj compare -suite serve

ci: check
