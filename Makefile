# Tier-1 verification: everything a change must keep green.
#   make tier1      vet + build + full test suite + race suite
#   make test       fast inner loop (build + tests, no race)
#   make bench      the end-to-end benchmark declared by BENCHMARK.json
#                   (bash benchmark/run.sh: all four workloads, full report;
#                   pass flags with ARGS='--workload wire-codec --seconds 5')
#   make benchmark-tests  the benchmark module's own tests (a nested Go
#                   module, so tier-1 `go test ./...` does not reach them)
#   make fuzz-smoke 10s coverage-guided fuzz of the codec frame decoder
#                   (typed errors only, never a panic)
#   make chaos      race-enabled chaos suite: fixed-seed soak (50 steps
#                   under drops/timeouts/corruption/partition/crash)
#                   plus a short randomized-seed smoke
#   make brownout   race-enabled overload soak: fixed-seed slow-consumer
#                   brownout proving bounded step wall time, graded
#                   shaping/shedding, breaker recovery, zero credit leaks
#   make crashmatrix race-enabled recovery gate: kill the journaled run
#                   at every journal phase boundary, resume, and require
#                   bit-identical convergence to the golden run (commit
#                   digests, live results, final checkpoints) with zero
#                   credit/pinned-buffer leaks, plus the corrupt-
#                   checkpoint fallback cell
#   make tenants    race-enabled noisy-neighbor soak: three tenants on
#                   one scheduler while one misbehaves (endpoint-scoped
#                   slowdown + poison route), proving victim isolation,
#                   quarantine open/release, autoscaling, zero leaks
#   make fmt        gofmt gate: fails if any file needs reformatting
#   make doccheck   godoc lint (cmd/doccheck): every exported symbol in
#                   the public-surface packages must carry a doc comment
#   make configs    declarative-config gate (internal/workload tests): every
#                   examples/configs/*.json must strictly decode, validate
#                   and be in canonical form; the single-tenant ones must
#                   run end-to-end to their golden result digests; and
#                   every registered analysis x placement must be declared
#                   by some example
#   make obs-check  end-to-end observability gate: builds s3dpipe, runs the
#                   quickstart config with the live endpoint, and validates /metrics,
#                   /trace.json, /events.jsonl (submit/done reconciliation),
#                   and /debug/pprof via cmd/obscheck
#   make serve      end-to-end image-serving gate (cmd/servecheck): a
#                   short store-backed pipeline with live pollers, zero
#                   pooled-framebuffer leaks, digests stable across an
#                   independent re-run, every spec cell fetchable with
#                   correct conditional/immutable GET semantics, and a
#                   250-viewer fleet with zero errors under a p99 bound

GO ?= go

.PHONY: tier1 vet build test race bench benchmark-tests fuzz-smoke chaos brownout crashmatrix tenants fmt doccheck configs obs-check serve

tier1: fmt vet build test race doccheck

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

doccheck:
	$(GO) run ./cmd/doccheck ./internal/registry ./internal/core

configs:
	$(GO) test -count=1 -run 'TestExampleConfig|TestEveryAnalysisPlacementHasAnExample' ./internal/workload/

obs-check:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/s3dpipe" ./cmd/s3dpipe && \
	$(GO) run ./cmd/obscheck -bin "$$tmp/s3dpipe"

serve:
	$(GO) run ./cmd/servecheck

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	bash benchmark/run.sh $(ARGS)

benchmark-tests:
	cd benchmark && $(GO) test ./...

fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzDecodeFrame -fuzztime 10s ./internal/codec/

chaos:
	$(GO) test -race -run TestChaosSoak -count=1 -v ./internal/core/
	CHAOS_SMOKE=1 $(GO) test -race -run TestChaosSmoke -count=1 -v ./internal/core/

brownout:
	$(GO) test -race -run TestBrownoutSoak -count=1 -v ./internal/workload/

crashmatrix:
	$(GO) test -race -run TestCrashMatrix -count=1 -v ./internal/workload/

tenants:
	$(GO) test -race -run TestNoisyNeighborSoak -count=1 -v ./internal/workload/
