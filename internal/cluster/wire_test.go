package cluster

import (
	"testing"

	"twolevel/internal/cache"
	"twolevel/internal/core"
	"twolevel/internal/spec"
	"twolevel/internal/sweep"
)

// TestWireOptionsRoundTripPreservesKey is the exactness contract at the
// protocol layer: shipping options over the wire and rebuilding them on
// the far side must reproduce the same content address, or remote
// memoization would silently alias (or miss) local evaluations.
func TestWireOptionsRoundTripPreservesKey(t *testing.T) {
	wl, err := spec.ByName("gcc1")
	if err != nil {
		t.Fatal(err)
	}
	// NewEvaluator applies the option defaults exactly as the service
	// evaluation plane does; the wire carries the defaulted form.
	opt := sweep.NewEvaluator(wl, sweep.Options{
		Refs:    5000,
		Retries: 2,
	}).Options()

	cfg := testConfig(4<<10, 64<<10)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}

	round := optionsToWire(opt).toOptions()
	want := sweep.Key("gcc1", cfg, opt)
	got := sweep.Key("gcc1", cfg, round)
	if got != want {
		t.Fatalf("key changed across wire round trip:\n  local %s\n  wire  %s", want, got)
	}
}

// TestValidateUnit proves the worker-side integrity checks: a tampered
// key, an unknown workload, a bad geometry and a negative retry count
// are all refused before any cycles are spent evaluating.
func TestValidateUnit(t *testing.T) {
	wl, err := spec.ByName("gcc1")
	if err != nil {
		t.Fatal(err)
	}
	opt := sweep.NewEvaluator(wl, sweep.Options{Refs: 1000}).Options()
	cfg := testConfig(2<<10, 32<<10)
	u := workUnit{
		Key:      sweep.Key("gcc1", cfg, opt),
		Workload: "gcc1",
		Options:  optionsToWire(opt),
		Config:   cfg,
	}
	if err := validateUnit(u); err != nil {
		t.Fatalf("valid unit rejected: %v", err)
	}

	bad := u
	bad.Key = "sha256:0000"
	if err := validateUnit(bad); err == nil {
		t.Fatal("tampered key accepted")
	}

	bad = u
	bad.Workload = "no-such-workload"
	if err := validateUnit(bad); err == nil {
		t.Fatal("unknown workload accepted")
	}

	bad = u
	bad.Config.L1I.Size = 3000 // not a power of two
	if err := validateUnit(bad); err == nil {
		t.Fatal("invalid configuration accepted")
	}

	bad = u
	bad.Options.Retries = -1
	bad.Key = unitKey(bad) // the key is intact; the retry count is not
	if err := validateUnit(bad); err == nil {
		t.Fatal("negative retries accepted")
	}
}

// testConfig builds the paper's canonical shape: split direct-mapped
// 16-byte-line L1s over an optional mixed L2.
func testConfig(l1, l2 int64) core.Config {
	cfg := core.Config{
		L1I: cache.Config{Size: l1, LineSize: 16, Assoc: 1},
		L1D: cache.Config{Size: l1, LineSize: 16, Assoc: 1},
	}
	if l2 > 0 {
		cfg.L2 = cache.Config{Size: l2, LineSize: 16, Assoc: 1}
	}
	return cfg
}
