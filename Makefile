# Convenience targets; everything is plain `go` underneath.

.PHONY: all ci lint lint-baseline test short race poison cover fuzz-smoke bench bench-smoke serve-smoke serve-load reproduce ablations examples fmt vet

# Packages whose hot paths must stay clean of lint suppressions: the
# zero-allocation fast paths (codecs, the event engine, the message path
# through the fabric and the RDMA engines, the compute side's op streams,
# caches and memory reads, the platform's run-end check, and the adaptive
# controller and traffic accounting that run on every transfer) are exactly
# where a silenced analyzer would hide a determinism bug.
HOT_PKGS := internal/bitstream internal/comp internal/sim internal/fabric internal/rdma \
	internal/gpu internal/cache internal/mem internal/platform internal/core internal/stats

all: vet lint test

# Everything a pre-merge check needs: formatting, vet (including the
# separate bench/ module, which root `go vet ./...` never compiles), the
# project's own determinism linter, the short test suite under the race
# detector (the sweep engine is concurrent by design), the bench module's
# tests (its byte-identity oracle and -short smoke), the message-ownership
# check (poison), the two examples that call platform.Build directly (each
# ends in the run-end quiescence check), and two determinism gates: the
# quickstart's -metrics-out snapshot and the files of a
# `reproduce -only` run (a static table, the characterization table and the
# Fig. 1 series that the runner's payload observer feeds, a figure, and the
# topology ablation over all five topologies and adaptive-global) must be
# byte-identical across runs.
ci:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	go vet ./...
	cd bench && go vet .
	@mkdir -p bin
	go build -o bin/mgpulint ./cmd/mgpulint
	./bin/mgpulint -sarif bin/mgpulint.sarif -baseline lint-baseline.json ./...
	go test -race -short ./...
	cd bench && go test .
	$(MAKE) poison
	@if grep -rn "lint:ignore" $(HOT_PKGS); then \
		echo "hot-path packages must not carry lint:ignore suppressions"; exit 1; \
	fi
	@echo "hot-path lint-suppression gate: OK"
	$(MAKE) cover
	$(MAKE) fuzz-smoke
	$(MAKE) bench-smoke
	$(MAKE) serve-smoke
	@mkdir -p bin
	go run ./examples/quickstart -metrics-out bin/metrics-a.json >/dev/null
	go run ./examples/quickstart -metrics-out bin/metrics-b.json >/dev/null
	cmp bin/metrics-a.json bin/metrics-b.json
	@echo "metrics determinism gate: OK"
	go run ./examples/custom_workload >/dev/null
	go run ./examples/trace_replay >/dev/null
	@echo "platform.Build examples gate: OK"
	@rm -rf bin/only-a bin/only-b
	go run ./cmd/reproduce -scale 1 -cus 2 -quiet -only table1,table5,fig1_SC,fig5,ablation_topology -out bin/only-a >/dev/null
	go run ./cmd/reproduce -scale 1 -cus 2 -quiet -only table1,table5,fig1_SC,fig5,ablation_topology -out bin/only-b >/dev/null
	for f in table1.txt table5.txt fig1_SC.txt fig5.txt ablation_topology.txt summary.txt; do cmp bin/only-a/$$f bin/only-b/$$f || exit 1; done
	@echo "reproduce -only determinism gate: OK"

# mgpulint: the determinism- and invariant-checking analyzers of
# internal/analysis (see DESIGN.md "Determinism rules").
lint:
	go run ./cmd/mgpulint ./...

# Re-record the suppression-budget baseline (lint-baseline.json) from the
# current tree. Run this after legitimately removing findings or
# suppressions so the shrunken budget is what CI enforces; growing counts
# must never be baselined away without review.
lint-baseline:
	go run ./cmd/mgpulint -baseline lint-baseline.json -write-baseline ./...

test:
	go test ./...

short:
	go test -short ./...

race:
	go test -race ./...

# Message ownership (DESIGN.md §9): under the poison tag every released
# memory message has its ID, address, response ID and data overwritten and
# is never reused, and a second release panics. A component or workload
# that keeps using a message (or borrowed read data) after its release
# computes garbage and fails Verify, and the golden digests show any change
# in simulated behaviour; the run-end check matrix (TestRunEndsQuiescent)
# runs in this build too. The build also cross-checks two activity-
# proportional shortcuts against the full scans they replace: the engine's
# per-partition window limit against every cross link, and the fabric's
# skipped injection scans against its queues.
poison:
	go test -tags poison -short ./internal/sim ./internal/mem ./internal/cache ./internal/rdma \
		./internal/gpu ./internal/workloads ./internal/runner ./internal/platform ./internal/fabric

# Coverage with a floor: the short suite must keep total statement coverage
# at or above COVER_FLOOR so new subsystems land with their tests.
COVER_FLOOR := 75

cover:
	@mkdir -p bin
	go test -short -coverprofile=bin/cover.out ./...
	@total=$$(go tool cover -func=bin/cover.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v floor=$(COVER_FLOOR) 'BEGIN { exit (t + 0 >= floor) ? 0 : 1 }' || \
		{ echo "total coverage $$total% is below the $(COVER_FLOOR)% floor"; exit 1; }

# Short fuzz passes over the committed seed corpora (testdata/fuzz) plus ten
# seconds of new exploration per target: enough to catch encoder/bitstream
# regressions pre-merge without turning ci into a fuzzing campaign. The codec
# invariant is the round trip: CompressedBits runs the encoder itself, so
# FuzzCompressedBits only checks the size probe's plumbing.
# FuzzDecompressGarbage feeds every decoder the RDMA receive path dispatches
# to arbitrary bitstreams, which must neither panic nor decode to a line of
# the wrong size. FuzzEventQueue checks the event queue's pop order against a
# sort oracle, FuzzQuietTicker ghost tickers (Ticker.TickQuiet) against
# plain TickLater, and FuzzWindowBound the engine's per-partition window
# limit against a scan of every cross link under random heads and next-send
# promises. FuzzCacheForwarding mixes cacheable reads, bypassed reads
# and writes through one cache and requires exactly one answer of the right
# kind per request. FuzzPolicyRoundTrip runs every policy (none, each static
# codec, adaptive sampling and running) on a line and a dst prefix: the
# prefix stays, the payload is appended to it, and it decodes to the line.
fuzz-smoke:
	go test ./internal/comp -run='^$$' -fuzz='^FuzzCodecRoundTrip$$' -fuzztime=10s
	go test ./internal/comp -run='^$$' -fuzz='^FuzzCompressedBits$$' -fuzztime=10s
	go test ./internal/comp -run='^$$' -fuzz='^FuzzDecompressGarbage$$' -fuzztime=10s
	go test ./internal/bitstream -run='^$$' -fuzz='^FuzzWriteBitsDifferential$$' -fuzztime=10s
	go test ./internal/bitstream -run='^$$' -fuzz='^FuzzReadBitsDifferential$$' -fuzztime=10s
	go test ./internal/sim -run='^$$' -fuzz='^FuzzEventQueue$$' -fuzztime=10s
	go test ./internal/sim -run='^$$' -fuzz='^FuzzQuietTicker$$' -fuzztime=10s
	go test ./internal/sim -run='^$$' -fuzz='^FuzzWindowBound$$' -fuzztime=10s
	go test ./internal/cache -run='^$$' -fuzz='^FuzzCacheForwarding$$' -fuzztime=10s
	go test ./internal/core -run='^$$' -fuzz='^FuzzPolicyRoundTrip$$' -fuzztime=10s

# Every per-package Go benchmark with allocation reporting. Performance
# claims use the repository benchmark instead (bash bench/run.sh, see
# bench/README.md).
bench:
	go test -run='^$$' -bench=. -benchmem ./...

# Cheap pre-merge benchmark smoke: one iteration of the hot-path
# microbenchmarks, purely to catch benchmarks that no longer compile or
# crash — timings are meaningless at -benchtime=1x.
bench-smoke:
	go test -run='^$$' -bench=. -benchtime=1x -benchmem \
		./internal/bitstream ./internal/comp ./internal/sim ./internal/fabric ./internal/gpu

# End-to-end gate for the sweep service: build the real sweepd binary, SIGKILL
# it mid-batch, restart it on the same data directory, and require the resumed
# batch's results file to be byte-identical to an in-process oracle
# (DESIGN.md "Sweep service"). Runs under the race detector; ~1 s.
serve-smoke:
	go test -race -count=1 -run '^TestServeSmoke$$' ./cmd/sweepd

# Savina-style fan-out/fan-in load gate for the sweepd API at full pressure:
# one large batch, many SSE consumers all dropping and resuming mid-stream.
# Every consumer must see the gapless sequence with exactly one terminal
# event, and the results artifact must match a direct internal/sweep run
# byte for byte. (`go test ./internal/serve` runs the same test at its
# default scale; -short shrinks it to a smoke.)
serve-load:
	SERVE_LOAD_JOBS=1000 SERVE_LOAD_CONSUMERS=64 \
		go test -race -count=1 -v -run '^TestServeLoad$$' ./internal/serve

reproduce:
	go run ./cmd/reproduce -out results -scale 4

ablations:
	go run ./cmd/reproduce -scale 2 -out results/ablations -only 'ablation_*'

examples:
	go run ./examples/quickstart
	go run ./examples/adaptive_tuning -bench MT -scale 1
	go run ./examples/custom_workload
	go run ./examples/compression_explorer
	go run ./examples/trace_replay

fmt:
	gofmt -w .

vet:
	go vet ./...
