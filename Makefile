GO ?= go

.PHONY: all build vet test test-short race cover fuzz bench-smoke staticcheck serve-smoke loadgen-smoke explain-smoke chaos-smoke fast-smoke ci clean

all: build

build:
	$(GO) build ./...

# vet also fails on any Go file of the module or of the bench module
# that gofmt would change, listing them.
vet:
	$(GO) vet ./...
	@files=$$(gofmt -l $$(for d in $$($(GO) list -f '{{.Dir}}' ./...) $$($(GO) -C bench list -f '{{.Dir}}' ./...); do echo $$d/*.go; done)); \
	if [ -n "$$files" ]; then echo "not gofmt-clean (run gofmt -w):"; echo "$$files"; exit 1; fi

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# -shuffle=on randomizes test order so inter-test state dependencies
# can't hide; a failure prints the seed to reproduce.
race:
	$(GO) test -race -shuffle=on ./...

# cover writes coverage.out and prints the per-package totals; the CI
# coverage job runs this and logs the per-function breakdown.
cover:
	$(GO) test -coverprofile=coverage.out -covermode=atomic ./...
	$(GO) tool cover -func=coverage.out | tail -1

# fuzz runs every native fuzz target in the module for 30 s each (one
# `go test -fuzz` per target, since Go fuzzes one at a time): the
# L1-once differential oracles in internal/core (one geometry, and a set
# of geometries recorded in one walk), the sweep document
# decoder, the result store's segment replay, the reuse-distance
# profile (twolevel-rdh/1) decoder and the trace decoders. A new Fuzz*
# target needs a line here. The store's and the profile's seeds are
# whole documents of several hundred bytes to a few KB, and at the
# default 60 s budget minimizing one new input that size can take the
# whole 30 s, so their minimization is capped at 5 s; so is the one-walk
# recorder's, whose inputs replay up to 9 geometries each.
fuzz:
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzL1PassReplay$$' -fuzztime 30s
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzL1Record$$' -fuzztime 30s -fuzzminimizetime 5s
	$(GO) test ./internal/sweep -run '^$$' -fuzz '^FuzzLoadJSON$$' -fuzztime 30s
	$(GO) test ./internal/service -run '^$$' -fuzz '^FuzzDiskStoreReplay$$' -fuzztime 30s -fuzzminimizetime 5s
	$(GO) test ./internal/model -run '^$$' -fuzz '^FuzzLoadProfile$$' -fuzztime 30s -fuzzminimizetime 5s
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzTextReader$$' -fuzztime 30s
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzBinaryReader$$' -fuzztime 30s
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzGeneratorParams$$' -fuzztime 30s

# bench-smoke runs the benchmark module's own tests (bench/ is a module
# of its own, so `go test ./...` at the root skips it): every workload
# at smoke-test sizes, untraced and traced, where the traced direct path
# must reproduce sweep.RunContext field by field.
bench-smoke:
	$(GO) -C bench test ./...

# staticcheck expects the binary on PATH (CI installs a pinned version).
staticcheck:
	staticcheck ./...

# serve-smoke boots cmd/served on an ephemeral port and drives the HTTP
# API end to end with curl, asserting the Pareto staircase and the
# result-store hit on resubmission. Requires curl and jq.
serve-smoke:
	bash scripts/serve_smoke.sh

# loadgen-smoke closes the serving-observatory loop: boots cmd/served
# with the durable store and hot LRU tier, replays a deterministic
# mixed workload with cmd/loadgen, and asserts the twolevel-loadgen/1
# report passes its SLOs with hot-tier hits and SSE-derived timings.
loadgen-smoke:
	bash scripts/loadgen_smoke.sh

# chaos-smoke proves crash safety and admission control from outside
# the process: kill -9 + restart with byte-identical results served
# from the durable store, 429 shedding, the /readyz drain flip, and the
# nonzero exit on an expired drain deadline. Requires curl and jq.
chaos-smoke:
	bash scripts/chaos_smoke.sh

# fast-smoke gates the analytical fast tier: cmd/sweep -accuracy runs
# both tiers over all seven workloads at the default trace length and
# the twolevel-model-accuracy/1 document must show mean |TPI error|
# <= 5% and envelope winner agreement >= 90%, checked at full precision
# from the JSON (the table rounds). Requires jq.
fast-smoke:
	bash scripts/fast_smoke.sh

# explain-smoke drives the cache-explainability pipeline: cachesim
# -explain-json 3C sum contract plus cmd/explain's conflict-share
# collapse under exclusive 4-way L2. Requires jq.
explain-smoke:
	bash scripts/explain_smoke.sh

# ci is what .github/workflows/ci.yml's test job runs; staticcheck and
# cover run as separate jobs.
ci: vet build race

clean:
	$(GO) clean ./...
