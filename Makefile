# Every gate is a `go test`; what each soak proves is on its test's doc
# comment (TestChaosSoak, TestBrownoutSoak, TestCrashMatrix,
# TestNoisyNeighborSoak, TestStoreServeGate, the TestExampleConfig* set),
# and all of them run in `test` and `race`.
#   make tier1      fmt + vet + build + full test suite + race suite (the CI gate);
#                   vet also vets the nested benchmark module, so an internal/
#                   signature change that breaks it fails here. The suite
#                   includes the reachability gate (TestEveryInternalFunctionIsReached,
#                   reach_test.go): it builds every cmd/ and examples/ binary and
#                   the benchmark with inlining off and fails on any internal/
#                   function none of them links, except String/Error methods and
#                   the entries of unreachedAllowList (one reason each; an entry
#                   a binary reaches or that is gone fails too). A test-only
#                   helper belongs in a _test.go file; allow-list only a hook or
#                   oracle another package's tests need. It also includes the
#                   option gate (TestEveryGoOptionIsSet, options_test.go, ~5 s
#                   on 2 cores): it type-checks this module and the benchmark
#                   from source and fails on an exported field of an internal/
#                   *Config, *Options or *Policy struct or of an analysis
#                   struct (its pointer has Name and Every methods; no JSON
#                   key: config keys have their own gate in internal/registry)
#                   whose non-test writes show fewer than two values, from any
#                   package: each distinct constant is a value, a non-constant
#                   write is a second value, and a keyed literal of the struct
#                   that leaves the field out writes its zero value. Only the
#                   entries of singleValueAllowList pass otherwise, each naming
#                   a field or a type with a reason (a stale entry fails too).
#                   Fold such a field into a constant; allow-list only a fault
#                   hook, a fault model or a field only benchmark/ writes.
#                   The field gate (TestEveryFieldIsRead, fields_test.go) shares
#                   that one type-check: it fails on a field of an internal/
#                   struct (embedded, _ and JSON-keyed fields aside) that
#                   non-test code writes and never reads by selector. A write
#                   is the left side of =, := or op= (x.f[k] = too), ++/--, a
#                   keyed-literal key, x.f = append(x.f, ...) or an atomic
#                   Add/Store/Swap/CompareAndSwap whose result is dropped;
#                   &x.f and every other use read. Only the entries of
#                   unreadAllowList pass otherwise (a stale entry fails too).
#                   Delete such a field with the code that fills it; allow-list
#                   only a type core.ResultDigest prints whole with %v or a
#                   fault count
#   make test       fast inner loop (tests, no race)
#   make bench      the end-to-end benchmark declared by BENCHMARK.json
#                   (bash benchmark/run.sh: all four workloads, full report;
#                   pass flags with ARGS='--workload wire-codec --seconds 5')
#   make benchmark-tests  the benchmark module's own tests (a nested Go
#                   module, so tier-1 `go test ./...` does not reach them)
#   make fuzz-smoke 10s coverage-guided fuzz of each decoder that reads
#                   outside bytes: the codec frame decoder, the BP-lite
#                   checkpoint reader (and its writer over a region, read
#                   back against a copy of the region), the append-only frame log under
#                   journal.wal and index.log, the image index replay, the
#                   pipeline config parser, the subtree and feature-partial
#                   payload decoders a staging bucket runs, the in-transit
#                   stages of the three merge-tree routes (topology, feature
#                   statistics, tracking) on whole payloads, and the statistics
#                   payload decoders it runs too (the model decoder
#                   Model.CombineMarshalled, into a fresh model and into a
#                   reused, Reset one; contingency, covariance,
#                   autocorrelator), the grid field decoder
#                   under checkpoints and render blocks (fresh, and into a
#                   reused, already decoded field, as a bucket's block
#                   table decodes), the image-spec
#                   key parser the serve tier routes through, and its
#                   If-None-Match header parser (typed errors only, never a
#                   panic; the log stays appendable, the store serves no ref
#                   outside its segment, an accepted config survives Build, a
#                   decoded payload or field marshals back to the bytes it
#                   was read from, an accepted spec key is the canonical one,
#                   a header matches only by "*" or a listed tag), and the
#                   distributed merge-tree glue on fuzzed fields and
#                   decompositions (it reproduces the serial tree), and the
#                   typed writers of the commit digest's text (they print
#                   what fmt's %v prints)
#   make chaos      the randomized-seed chaos smoke under -race (env-gated,
#                   so `race` skips it; the fixed-seed soak runs there)

GO ?= go

.PHONY: tier1 fmt vet build test race bench benchmark-tests fuzz-smoke chaos

tier1: fmt vet build test race

vet:
	$(GO) vet ./...
	cd benchmark && $(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

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
	$(GO) test -run xxx -fuzz FuzzReadFile -fuzztime 10s ./internal/bp/
	$(GO) test -run xxx -fuzz FuzzOpenLog -fuzztime 10s ./internal/recovery/
	$(GO) test -run xxx -fuzz FuzzOpenIndex -fuzztime 10s ./internal/imagestore/
	$(GO) test -run xxx -fuzz FuzzParseConfig -fuzztime 10s ./internal/registry/
	$(GO) test -run xxx -fuzz FuzzUnmarshalSubtree -fuzztime 10s ./internal/mergetree/
	$(GO) test -run xxx -fuzz FuzzUnmarshalFeaturePartials -fuzztime 10s ./internal/mergetree/
	$(GO) test -run xxx -fuzz FuzzGlueEqualsSerial -fuzztime 10s ./internal/mergetree/
	$(GO) test -run xxx -fuzz FuzzMergeTreePayloads -fuzztime 10s ./internal/core/
	$(GO) test -run xxx -fuzz FuzzUnmarshalPayloads -fuzztime 10s ./internal/stats/
	$(GO) test -run xxx -fuzz FuzzUnmarshalField -fuzztime 10s ./internal/grid/
	$(GO) test -run xxx -fuzz FuzzParseSpec -fuzztime 10s ./internal/imagestore/
	$(GO) test -run xxx -fuzz FuzzEtagMatch -fuzztime 10s ./internal/serve/
	$(GO) test -run xxx -fuzz FuzzWriteFileRegion -fuzztime 10s ./internal/bp/
	$(GO) test -run xxx -fuzz FuzzDigestTextMatchesFmt -fuzztime 10s ./internal/core/

chaos:
	CHAOS_SMOKE=1 $(GO) test -race -run TestChaosSmoke -count=1 -v ./internal/core/
