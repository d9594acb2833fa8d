GO ?= go
FUZZTIME ?= 10s

.PHONY: check fmt vet build test race netlines bench-pairs bench bench-json bench-gate bench-smoke bench-campaign campaign-smoke telemetry-smoke serve-smoke train-smoke chaos-smoke cache-smoke resilience-soak metriclint overhead-guard fuzz-smoke vuln

## check: the full pre-merge gate — formatting, vet, build, race tests,
## the campaign-equivalence smoke, telemetry smoke, the ninecd serving
## smoke, the codec-training smoke, the seeded chaos/SLO smoke,
## the result-cache smoke, the client retry soak, the metric-name
## contract lint, the disabled-telemetry overhead guard, a short fuzz
## pass over every hostile-input decoder, the bench regression gate
## over the two newest snapshots, the bench module's own tests, and
## (when installed) govulncheck.
check: fmt vet build race campaign-smoke telemetry-smoke serve-smoke train-smoke chaos-smoke cache-smoke resilience-soak metriclint overhead-guard fuzz-smoke bench-gate bench-smoke vuln

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

## test: tier-1 at one, two and four Ps, so no test can depend on the
## core count of the machine it runs on.
test:
	$(GO) test -count=1 -cpu 1,2,4 ./...

## race: the race detector at one and two Ps, so tests that only pass
## when goroutines run one at a time cannot hide behind GOMAXPROCS=1.
race:
	$(GO) test -race -cpu 1,2 ./...

## netlines: lines added and removed against BASE (default HEAD~1),
## split into non-test Go, test Go and other files.
BASE ?= HEAD~1
netlines:
	sh scripts/netlines.sh $(BASE)

## bench-pairs: A/B one package's benchmarks between BASE and the
## working tree: N alternating runs of each side's `go test -c` binary
## at -cpu 1,2 and -benchtime 200ms, then per benchmark each side's
## median ns/op with its [min, max], the working tree's wins and a
## verdict. It fails when a benchmark's median is worse than BASE's by
## more than 10% and BASE wins most of the pairs
## (scripts/bench_verdict.awk). Not part of check: on a shared 2-vCPU
## host, identical code fails that rule on a tenth to a fifth of the
## hot-path benchmarks in every run measured (CHANGES.md).
##   make bench-pairs BASE=HEAD~1 PKG=./internal/core BENCH='EncodeSetK' N=6
N ?= 6
bench-pairs:
	GO="$(GO)" sh scripts/bench_pairs.sh $(BASE) $(PKG) '$(BENCH)' $(N)

## bench: the 9C hot-path benchmarks (encode/decode, word kernels, reference).
bench:
	$(GO) test -bench 'Encode|Decode|Classify' -run XXX -benchtime 1s ./internal/core/

## bench-campaign: the fault-simulation campaign benchmarks (collapsed
## engine vs serial-collapsed) on the s9234-profile synthetic circuit.
bench-campaign:
	$(GO) test -bench 'Campaign' -run XXX -benchtime 1s ./internal/faultsim/

## bench-json: run the hot-path benchmarks — the codec kernels, the v4
## wire layers (chunk framing and reading, the streamed decode, text
## output), the 01X parse stage, the ninecd handler stack and the
## fault-sim campaign — and persist a schema-valid BENCH_<stamp>.json
## snapshot in the repo root (the perf trajectory).
## The whole suite runs 3 times and benchjson keeps the best ns/op per
## name. The repeats are outer-loop (suite, then suite again) rather
## than -count=3 on purpose: each benchmark's samples land minutes
## apart, so a noisy-neighbor burst that outlasts one back-to-back
## triple can't poison every sample of a benchmark.
bench-json:
	{ for i in 1 2 3; do \
	  $(GO) test -bench 'Encode|Decode|Classify' -run XXX -benchtime 1s ./internal/core/; \
	  $(GO) test -bench 'StreamDecode|ChunkRead|WriteV4' -run XXX -benchtime 1s ./internal/container/; \
	  $(GO) test -bench 'AppendText|ParseCube' -run XXX -benchtime 1s ./internal/bitvec/; \
	  $(GO) test -bench 'Read' -run XXX -benchtime 1s ./internal/tcube/; \
	  $(GO) test -bench 'Serve' -run XXX -benchtime 1s ./cmd/ninecd/; \
	  $(GO) test -bench 'Campaign' -run XXX -benchtime 1s ./internal/faultsim/; \
	  done; } | $(GO) run ./cmd/benchjson -dir .

## bench-gate: diff the newest BENCH_*.json snapshot against the
## newest older one from the same environment (GOOS/GOARCH/CPU/procs)
## and fail on >10% ns/op regression in the hot-path metrics
## (EncodeSet*, DecodeSet*, EncodeCube, DecodeCube, Classify,
## StreamDecode*, ChunkRead, WriteV4, AppendText, ParseCube, Read,
## Serve*, Campaign). Skips gracefully when fewer than two snapshots exist or no
## older snapshot shares the environment, so fresh clones and migrated
## machines still pass.
bench-gate:
	$(GO) run ./cmd/benchjson -gate -dir .

## bench-smoke: the end-to-end benchmark module's own tests (its
## runner, spec and compare logic, and a short TestBenchSmoke run).
bench-smoke:
	cd bench && $(GO) test ./...

## campaign-smoke: prove a parallel collapsed campaign reports coverage
## bit-identical to the serial uncollapsed per-fault reference.
campaign-smoke:
	$(GO) test ./internal/faultsim -run 'TestCampaignEquivalenceSmoke|TestCollapsedCampaignMatchesUncollapsed' -count=1

## telemetry-smoke: run ninec with telemetry on against the example
## cube set and require every byte of its -json report to be valid
## JSON (the -metrics exposition goes to a temp file, so stdout stays
## pure JSON), then run TestTelemetrySmoke, which parses the -metrics
## file strictly as Prometheus text.
telemetry-smoke:
	@tmp=$$(mktemp) && trap 'rm -f "$$tmp"' EXIT && \
	$(GO) run ./cmd/ninec -k 8 -json -metrics "$$tmp" examples/cubes.txt \
		| $(GO) run ./cmd/benchjson -checkjson
	$(GO) test ./cmd/ninec -run '^TestTelemetrySmoke$$' -count=1

## serve-smoke: boot ninecd, round-trip the example cube set through
## /encode -> /decode with curl, scrape /metrics, and require a
## graceful SIGTERM drain.
serve-smoke:
	GO="$(GO)" sh scripts/serve_smoke.sh

## train-smoke: boot ninecd, train a tuned codec profile on the
## example corpus, and require a stable profile ID,
## non-negative CR uplift over the fixed 9C code, byte-identical
## profiled encodes, a full-pattern round trip, and a 404 on an
## unknown profile.
train-smoke:
	GO="$(GO)" sh scripts/train_smoke.sh

## chaos-smoke: fire ninecload at a live ninecd through the seeded
## chaos proxy (latency + 5% resets + 5% slow-loris) and require a
## clean SLO verdict — zero unclassified client errors, zero daemon
## panics, budgets respected — then a graceful SIGTERM drain.
chaos-smoke:
	GO="$(GO)" sh scripts/chaos_smoke.sh

## cache-smoke: prove the content-addressed result cache end to end —
## a seeded duplicate-heavy replay must verify byte-identical against
## local reference encodes, land a >0.9 hit ratio, and cost the daemon
## at most 0.60x the CPU per request of the identical replay against
## ninecd -cache=false; a replay of unique bodies must leave the cache
## empty.
cache-smoke:
	GO="$(GO)" sh scripts/cache_smoke.sh

## resilience-soak: a short -race soak of ninecload's retry loop —
## concurrent goroutines against a misbehaving server, asserting
## budgets and classification — at -cpu 1,2.
resilience-soak:
	$(GO) test -race -cpu 1,2 ./cmd/ninecload -run Soak -count=1

## metriclint: enforce the metric-name contract — dot-separated
## lowercase names whose Prometheus mapping is stable and
## collision-free across every registration in the tree.
metriclint:
	$(GO) test ./internal/obs -run TestMetricNameContract -count=1

## vuln: run govulncheck when it is on PATH; skip (successfully) when
## it is not, so air-gapped checkouts still pass `make check`.
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "vuln: govulncheck not installed, skipping"; \
	fi

## overhead-guard: assert the disabled-telemetry encode path costs the
## same as the enabled one (the instrumentation must be free by default).
overhead-guard:
	$(GO) test ./internal/core -run TestDisabledTelemetryOverhead -count=1

## fuzz-smoke: run every native fuzz target for FUZZTIME each — the
## container reader, the 9C stream decoder, the streamed v4 decode along
## the text kernel, the plane kernel and the generic decoder, the word
## kernels and the fresh and workspace set encodes against the generic
## and reference encoders, /encode's text path against the parser path (container
## bytes or error string), each baseline codec family, the text parsers, the
## word-parallel 01X reader against its per-trit reference, and the 64-byte
## chunk parser's canonical fast path against its exact classifier. Any panic,
## disagreement or unclassified error is a failure.
fuzz-smoke:
	$(GO) test ./internal/container -run '^$$' -fuzz '^FuzzRead$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzDecodeCube$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzStreamDecodeDifferential$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzKernelDifferential$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzEncodeDifferential$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/batchenc -run '^$$' -fuzz '^FuzzEncodeText$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/codecs -run '^$$' -fuzz '^FuzzRunLengthDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/codecs -run '^$$' -fuzz '^FuzzVIHCDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/codecs -run '^$$' -fuzz '^FuzzLZWDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/codecs -run '^$$' -fuzz '^FuzzBlockDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/tcube -run '^$$' -fuzz '^FuzzRead$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/tcube -run '^$$' -fuzz '^FuzzReadDifferential$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/bitvec -run '^$$' -fuzz '^FuzzParse64$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/netlist -run '^$$' -fuzz '^FuzzParseBench$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/stil -run '^$$' -fuzz '^FuzzRead$$' -fuzztime $(FUZZTIME)
