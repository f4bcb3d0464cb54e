GO ?= go

.PHONY: all build vet test test-short race cover fuzz bench-smoke staticcheck serve-smoke loadgen-smoke explain-smoke chaos-smoke cluster-smoke failover-smoke fast-smoke ci clean

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

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
# L1-once differential oracle in internal/core and the trace decoders.
# A new Fuzz* target needs a line here.
fuzz:
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzL1PassReplay$$' -fuzztime 30s
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

# cluster-smoke proves the distributed sweep cluster from outside the
# processes: a coordinator plus two worker processes run a sweep, one
# worker is killed -9 mid-job, and the final result document must be
# byte-identical to a standalone run with zero lost and zero
# double-counted evaluations. Requires curl and jq.
cluster-smoke:
	bash scripts/cluster_smoke.sh

# failover-smoke proves coordinator crash-tolerance from outside the
# processes: a journaled coordinator plus two workers run a sweep, the
# COORDINATOR is killed -9 mid-job and restarted against the same
# journal and store directories, and the final result document must be
# byte-identical to a standalone run with zero lost and zero
# re-evaluated points and at least one orphaned lease reconciled.
# Requires curl and jq.
failover-smoke:
	bash scripts/failover_smoke.sh

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
