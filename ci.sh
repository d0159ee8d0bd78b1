#!/bin/sh
# CI gate. Usage: ci.sh [tier1|tier2|all]
#
#   tier1  fast gate: formatting, grep gates, build, tests, race tests, ingest/cluster/query smokes
#   tier2  deep gate: vet, fuzz smoke, benchmark module tests, chaos gate, trace smoke
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
	# are gone, and a probe literal is a typed plan literal bound by
	# internal/query alone.
	if grep -rnE --include='*.go' --exclude-dir=.bench_build '\bCountEqual' .; then
		echo 'no Go file may use a CountEqual* identifier: count through btrblocks.Count'
		exit 1
	fi
	test ! -e scan.go || { echo 'root scan.go must not exist'; exit 1; }
	if grep -rnE --include='*.go' 'strconv\.ParseInt\(value\b|ParseFloat\(value\b' internal/blockstore internal/cluster internal/smoke; then
		echo 'probe literals are typed plan literals bound by internal/query'
		exit 1
	fi

	echo "== one HTTP surface per question =="
	# A count of column = literal is a /v1/query plan with one eq leaf,
	# and server state is read from /metrics, /v1/spans and the expvar
	# section: no non-test Go file names the count-eq or telemetry
	# routes, or defines the probe parser, the router's count scatter or
	# the span exemplars that served them.
	if grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build \
		'/v1/(count-eq|telemetry)|^func (\([^)]*\) )?(ParseEq|CountEqScatter|Exemplars)\(' .; then
		echo 'one route per question: count through /v1/query, read server state from /metrics and /v1/spans'
		exit 1
	fi

	echo "== one compress-side record =="
	# A compressed block is recorded once, as the decision trace
	# (obs.BlockTrace) that Options.Telemetry keeps; Snapshot derives the
	# aggregates from those records and Trace returns them. No second
	# record type, recorder or Options sink may come back.
	if grep -rnwE --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build \
		'BlockEvent|BlockEventFromDecisions|NewTracer|type Tracer' .; then
		echo 'one compress-side record: keep block decision traces on Options.Telemetry'
		exit 1
	fi
	hits="$(find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' -exec awk '
		FNR == 1 { inopt = 0 }
		/^type Options struct/ { inopt = 1; next }
		inopt && /^}/ { inopt = 0 }
		inopt && /^[[:space:]]*Trace[[:space:],]/ { print FILENAME ":" FNR ":" $0 }' {} +)"
	if [ -n "$hits" ]; then
		echo "$hits"
		echo 'Options has no Trace field: the decision trace is on Options.Telemetry'
		exit 1
	fi

	echo "== one cascade driver =="
	# Scheme selection (pick -> estimate on a sample -> encode, recursively)
	# is written once, in internal/core/cascade.go, for all four column
	# kinds; strings are core.String, not a driver of their own.
	if grep -nE '^func (\([^)]*\) )?(pick[A-Za-z]*|compress[A-Za-z]*|stringEnabled)[[(]' internal/core/*.go | grep -v '^internal/core/cascade.go:'; then
		echo 'the cascade driver lives in internal/core/cascade.go alone'
		exit 1
	fi
	if grep -rnE --include='*.go' --exclude-dir=.bench_build '\b(CompressString|CompressStringAs|ChooseString|DecompressString|ParseString|SelectString|CountString)\b|\bStringSchemes\(\)' .; then
		echo 'strings go through the core.String descriptor'
		exit 1
	fi

	echo "== one scheme table =="
	# Each scheme's format lives in one file of internal/core, as that
	# scheme's table entries: every scheme code but the driver's baseline
	# appears in exactly one non-test file besides core.go. A stream's value
	# count is checked against the decode cap in the stream-head parser
	# alone, so no scheme can bypass it.
	core_files=$(ls internal/core/*.go | grep -v -e '_test\.go$' -e '/core\.go$')
	for code in $(sed -n 's/^	\(Code[A-Z][A-Za-z0-9]*\).*/\1/p' internal/core/core.go); do
		[ "$code" = CodeUncompressed ] && continue
		n=$(grep -lw "$code" $core_files | wc -l)
		test "$n" -eq 1 || { echo "$code appears in $n non-test files of internal/core besides core.go, want 1"; exit 1; }
	done
	caps=$(grep -nE 'maxN\(\)|[mM]axBlockValues' $core_files | grep -vE '^[^:]*:[0-9]+:[[:space:]]*//' || true)
	if [ "$(echo "$caps" | wc -l)" -ne 1 ] || ! echo "$caps" | grep -q '^internal/core/scheme\.go:.*n > cfg\.maxN()'; then
		echo "$caps"
		echo 'check stream counts against the decode cap in the stream-head parser (internal/core/scheme.go: head) alone'
		exit 1
	fi

	echo "== one container grammar =="
	# Column, chunk and stream framing are each parsed once, in container.go
	# (ParseColumnIndex, parseChunk, streamScanner), so every reader accepts
	# the same files. No other root file compares bytes against a container
	# magic or checks a version byte; writers may append a magic.
	magics='columnMagic|fileMagic|streamMagic'
	if ls *.go | grep -v -e '_test\.go$' -e '^container\.go$' | xargs grep -nE "\b($magics)\b|supportedVersion\(" |
		sed -E "s/append\([^,]+, ($magics)\.\.\.\)//g; s/len\(($magics)\)//g" |
		grep -E "\b($magics)\b|supportedVersion\("; then
		echo 'parse container framing in container.go alone'
		exit 1
	fi

	echo "== one selection algebra =="
	# A block's selection is a bitset the kernels write; a column's is a
	# roaring bitmap, combined a container at a time by one algebra
	# (internal/roaring: combine, AddWords, Words). Outside the storage of
	# Frequency and PDE, internal/core never touches roaring; roaring has
	# no per-value Remove or Rank; query.go walks no selection per value.
	if ls internal/core/*.go | grep -v -e '_test\.go$' -e '/frequency\.go$' -e '/pde\.go$' |
		xargs grep -l '"btrblocks/internal/roaring"'; then
		echo 'internal/core selects into block bitsets; only frequency.go and pde.go store roaring bitmaps'
		exit 1
	fi
	if grep -nE '^func (\([^)]*\) )?(Remove|Rank)\(' internal/roaring/roaring.go; then
		echo 'internal/roaring defines no Remove or Rank: use the container-wise set operations'
		exit 1
	fi
	if grep -n '\.ForEach(func' query.go; then
		echo 'query.go reads selections a word at a time (roaring AddWords and Words)'
		exit 1
	fi

	echo "== one compare loop =="
	# FastBP compares a full block straight from its packed words through
	# the generated compare kernels (bitpack.CompareRange, CompareSet), and
	# any other block's unpacked deltas with the predicate rebased onto its
	# reference (cmpWords in select.go), the reference the kernels are
	# tested against; the integer decode fallback, Pred[T].filter, runs the
	# same loops: none tests a value through a call to Match or filter.
	if grep -nE '\.(Match|filter)\(' internal/core/fastbp.go; then
		echo 'internal/core/fastbp.go compares deltas with cmpWords, not Match or filter'
		exit 1
	fi
	for k in CompareRange CompareSet; do
		grep -q "bitpack\.$k(" internal/core/fastbp.go ||
			{ echo "internal/core/fastbp.go must compare full blocks through bitpack.$k"; exit 1; }
	done
	body="$(sed -n '/^func (p \*Pred\[T\]) filter(/,/^}/p' internal/core/select.go)"
	if [ -z "$body" ] || echo "$body" | grep -n 'Match('; then
		echo 'Pred[T].filter in internal/core/select.go must run the compare loops, not Match'
		exit 1
	fi

	echo "== one smoke per process boundary =="
	# A -smoke mode checks only what needs a real child process: btringest
	# SIGKILLs its child mid-append and follows one trace across
	# processes, btrrouted SIGKILLs a node mid-scan. Whatever runs in one
	# process is an in-package test, so btrserved has no -smoke.
	smokes="$(grep -rlE --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build \
		'\.Bool(Var)?\((&[^,]+, *)?"smoke"' . | sort | tr '\n' ' ')"
	if [ "$smokes" != "./cmd/btringest/main.go ./cmd/btrrouted/main.go " ]; then
		echo "smoke flags registered in: $smokes"
		echo 'only cmd/btringest/main.go and cmd/btrrouted/main.go may register a -smoke flag'
		exit 1
	fi
	for f in $smokes; do
		grep -q 'smoke\.StartChild(' "$f" ||
			{ echo "$f: its -smoke must spawn a child process (smoke.StartChild)"; exit 1; }
	done

	echo "== one measuring surface per question =="
	# cmd/btrbench regenerates the paper's tables and figures and nothing
	# else: served scans, queries, ingest, span overhead and the decode
	# kernels are measured by bench/, the BENCH_*.json suites
	# (cmd/benchtraj) and in-package tests. The root tests keep no
	# testing.B copy of the paper figures.
	if ls internal/experiments/*.go | grep -v '_test\.go$' |
		xargs grep -nE '"btrblocks/(internal/(blockstore|cluster|ingest|obs|query|smoke)|metadata)"'; then
		echo 'internal/experiments may not import the serving, ingest, query, tracing or sidecar packages'
		exit 1
	fi
	if grep -l '"btrblocks/internal/experiments"' *_test.go; then
		echo 'root tests may not import internal/experiments: btrbench and TestAllExperimentsRun cover the paper figures'
		exit 1
	fi

	echo "== one JSON block codec =="
	# A format=json block is written by one hand-written writer
	# (writeBlockJSON in internal/blockstore/wire.go) and read by one
	# one-pass reader: the node's block handler writes from the cached
	# block, the router's from the replica's frame (WriteBlockJSON), and
	# neither goes through encoding/json. The old DTO lives on only in
	# wire_test.go, as the reference the bytes are pinned to.
	if grep -rnw --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build 'BlockPayload' .; then
		echo 'BlockPayload may appear in test files only: use the JSON block codec'
		exit 1
	fi
	for f in internal/blockstore/server.go internal/cluster/server.go; do
		body="$(sed -n '/^func (s \*Server) handleBlock(/,/^}/p' "$f")"
		if [ -z "$body" ] || ! echo "$body" | grep -qE '\b[wW]riteBlockJSON\(' || echo "$body" | grep -n 'obs\.WriteJSON'; then
			echo "$f: handleBlock must write format=json through the JSON block writer, not obs.WriteJSON"
			exit 1
		fi
	done

	echo "== one append decoder =="
	# POST /v1/append and POST /v1/write decode through one columnar row
	# decoder (internal/ingest/decode.go): views of the body bound straight
	# into column slices, no map per row and no encoding/json pass over an
	# append body. It and the JSON block reader share one lexer,
	# internal/jsonlex; internal/blockstore has none of its own. The
	# map-based path lives on only in internal/ingest/reference_test.go,
	# as the reference the decoder is checked against.
	if grep -rn --include='*.go' --exclude='*_test.go' 'map\[string\]json\.RawMessage' internal/ingest; then
		echo 'internal/ingest decodes appends into column slices, not map[string]json.RawMessage'
		exit 1
	fi
	for fn in appendJSON appendLines; do
		body="$(sed -n "/^func (h \*handler) $fn(/,/^}/p" internal/ingest/server.go)"
		if [ -z "$body" ] || echo "$body" | grep -n 'json\.Unmarshal'; then
			echo "internal/ingest/server.go: $fn must decode through the append decoder, not json.Unmarshal"
			exit 1
		fi
	done
	if ls internal/blockstore/*.go | grep -v '_test\.go$' |
		xargs grep -nE '^func (\([^)]*\) )?(ws|next|span|skip|number|jsonInt|unescapeJSON|isHex4|hex4)[[(]'; then
		echo 'internal/blockstore reads JSON through internal/jsonlex, not a lexer of its own'
		exit 1
	fi
	grep -q '"btrblocks/internal/jsonlex"' internal/blockstore/wire.go ||
		{ echo 'internal/blockstore/wire.go must read JSON blocks through internal/jsonlex'; exit 1; }

	echo "== generated kernels =="
	# The unpack and compare kernels are generated (internal/bitpack/gen)
	# and committed: regenerating them must change no byte.
	go generate ./internal/bitpack >/dev/null
	drift="$(git status --porcelain -- 'internal/bitpack/*_gen.go')"
	if [ -n "$drift" ]; then
		echo "$drift"
		echo 'internal/bitpack: the generated kernels drifted from their generator: run go generate ./internal/bitpack and commit'
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

	echo "== ingest smoke =="
	# End-to-end crash safety plus cross-process tracing: btringest
	# spawns a child server, SIGKILLs it mid-append, restarts it, and
	# verifies the published chunks hold exactly the acknowledged rows;
	# it then drives one trace ID through append → WAL → flush →
	# publish → invalidate into a second span-recording server and
	# asserts /v1/spans continuity on both sides.
	make ingest-smoke

	echo "== cluster smoke =="
	# Replicated serving across processes: btrrouted routes over three
	# child node processes (R=2) and SIGKILLs one mid-scan; every
	# in-flight scan must still complete bit-correct off the survivors,
	# the prober must mark the node down, and a routed /v1/query count
	# per string column must still agree. Repair, hedging and the rest of
	# the routed queries are internal/cluster tests.
	make cluster-smoke

	echo "== query smoke =="
	# Query-engine correctness: the differential oracle sweep (random
	# plans over every column type and scheme mix vs a
	# decompress-everything reference), the NULL three-valued-logic
	# matrix, /v1/query's status-code contract on a single node (plan
	# errors 400, missing column 404, corrupt block 422, never 5xx,
	# sidecar pruning live), and cluster scatter-gather equivalence with
	# a damaged replica.
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
