package figures

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"twolevel/internal/cache"
	"twolevel/internal/core"
	"twolevel/internal/obs"
	"twolevel/internal/obs/span"
	"twolevel/internal/spec"
	"twolevel/internal/sweep"
)

func TestExtensionIDsRegistered(t *testing.T) {
	all := IDs()
	reg := map[string]bool{}
	for _, id := range all {
		reg[id] = true
	}
	for _, id := range ExtensionIDs() {
		if !reg[id] {
			t.Errorf("extension %q missing from IDs()", id)
		}
		if _, err := fastHarness().ByID(id); err != nil {
			t.Errorf("ByID(%s): %v", id, err)
		}
	}
}

func TestExtReplacement(t *testing.T) {
	f := fastHarness().ExtReplacement()
	if len(f.Rows) != 3 {
		t.Fatalf("rows = %d", len(f.Rows))
	}
	// Policies must actually differ (4-way L2), i.e. not all TPIs equal.
	if f.Rows[0][1] == f.Rows[1][1] && f.Rows[1][1] == f.Rows[2][1] {
		t.Errorf("all replacement policies produced identical TPI: %v", f.Rows)
	}
}

func TestExtAssociativityMonotoneMissRate(t *testing.T) {
	f := fastHarness().ExtAssociativity()
	if len(f.Rows) != 4 {
		t.Fatalf("rows = %d", len(f.Rows))
	}
	prev := 1.0
	for _, row := range f.Rows {
		mr, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatal(err)
		}
		if mr > prev*1.05 {
			t.Errorf("L2 local miss rate rose with associativity: %v", f.Rows)
		}
		prev = mr
	}
}

func TestExtLineSize(t *testing.T) {
	f := fastHarness().ExtLineSize()
	if len(f.Rows) != 3 {
		t.Fatalf("rows = %d", len(f.Rows))
	}
	// 32B lines must beat 16B on these spatially-local workloads.
	mr16, _ := strconv.ParseFloat(f.Rows[0][1], 64)
	mr32, _ := strconv.ParseFloat(f.Rows[1][1], 64)
	if mr32 >= mr16 {
		t.Errorf("32B L1 miss rate %.4f not below 16B %.4f", mr32, mr16)
	}
}

func TestExtPolicyTrafficOrdering(t *testing.T) {
	f := fastHarness().ExtPolicyTraffic()
	if len(f.Rows) != 3 {
		t.Fatalf("rows = %d", len(f.Rows))
	}
	if len(f.Notes) == 0 || strings.Contains(f.Notes[0], "WARNING") {
		t.Errorf("policy ordering violated: %v", f.Notes)
	}
}

func TestExtMulticycleConjecture(t *testing.T) {
	f := fastHarness().ExtMulticycle()
	if len(f.Rows) != 5 {
		t.Fatalf("rows = %d", len(f.Rows))
	}
	if len(f.Notes) == 0 || strings.Contains(f.Notes[0], "WARNING") {
		t.Errorf("§10 conjecture violated: %v", f.Notes)
	}
	// Overlap column must never exceed the blocking multicycle column.
	for _, row := range f.Rows {
		mc, _ := strconv.ParseFloat(row[2], 64)
		ov, _ := strconv.ParseFloat(row[3], 64)
		if ov > mc {
			t.Errorf("overlap TPI %v above blocking %v in row %v", ov, mc, row)
		}
	}
}

func TestExtMissRates(t *testing.T) {
	f := fastHarness().ExtMissRates()
	if len(f.Rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(f.Rows))
	}
	// Three anchored workloads produce comparison notes.
	if len(f.Notes) != 3 {
		t.Errorf("notes = %v, want 3 anchors", f.Notes)
	}
	// Each row: name + 9 sizes + anchor column.
	for _, row := range f.Rows {
		if len(row) != 11 {
			t.Errorf("row %v has %d columns, want 11", row[0], len(row))
		}
	}
}

func TestExtTranslation(t *testing.T) {
	f := fastHarness().ExtTranslation()
	if len(f.Rows) != 6 {
		t.Fatalf("rows = %d", len(f.Rows))
	}
	if len(f.Notes) == 0 || strings.Contains(f.Notes[0], "WARNING") {
		t.Errorf("§1 translation advantage violated: %v", f.Notes)
	}
	// Parallel rows must show identical TPI with and without translation.
	for _, row := range f.Rows {
		if row[1] == "parallel" && row[2] != row[3] {
			t.Errorf("parallel row %v changed TPI", row)
		}
		if row[1] == "SERIALIZED" && row[2] == row[3] {
			t.Errorf("serialized row %v did not pay", row)
		}
	}
}

func TestExtSeeds(t *testing.T) {
	f := fastHarness().ExtSeeds()
	if len(f.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 seeds", len(f.Rows))
	}
	if len(f.Notes) == 0 || strings.Contains(f.Notes[0], "WARNING") {
		t.Errorf("verdict not seed-stable: %v", f.Notes)
	}
	// Alternative seeds must actually change the measured miss rate
	// (same value everywhere would mean the seed is ignored).
	if f.Rows[0][1] == f.Rows[1][1] && f.Rows[1][1] == f.Rows[2][1] {
		t.Errorf("miss rates identical across seeds: %v", f.Rows)
	}
}

func TestExtBanked(t *testing.T) {
	f := fastHarness().ExtBanked()
	if len(f.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(f.Rows))
	}
	// Banked issue rates must rise with banks and stay below 2.
	prev := 0.0
	for _, row := range f.Rows[2:] {
		r, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		if r <= prev || r >= 2 {
			t.Errorf("banked issue rate %v out of order: %v", r, f.Rows)
		}
		prev = r
	}
	// Banked area must stay well under the dual-ported area.
	dual, _ := strconv.ParseFloat(f.Rows[1][2], 64)
	bank8, _ := strconv.ParseFloat(f.Rows[4][2], 64)
	if bank8 >= dual {
		t.Errorf("8-banked area %v not below dual-ported %v", bank8, dual)
	}
	if len(f.Notes) == 0 {
		t.Error("no tradeoff note")
	}
}

func TestExtBoard(t *testing.T) {
	f := fastHarness().ExtBoard()
	if len(f.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 (none, 3 sizes, perfect)", len(f.Rows))
	}
	for _, n := range f.Notes {
		if strings.Contains(n, "WARNING") {
			t.Errorf("board interpolation violated: %v", f.Notes)
		}
	}
	// Board hit rate must rise with board size.
	h256, _ := strconv.ParseFloat(f.Rows[1][1], 64)
	h4m, _ := strconv.ParseFloat(f.Rows[3][1], 64)
	if h4m < h256 {
		t.Errorf("board hit rate fell with size: %v", f.Rows)
	}
}

func TestExtWritePolicy(t *testing.T) {
	f := fastHarness().ExtWritePolicy()
	if len(f.Rows) != 2 {
		t.Fatalf("rows = %d", len(f.Rows))
	}
	// No-allocate must not fetch MORE lines than write-allocate.
	wb, _ := strconv.ParseFloat(f.Rows[0][2], 64)
	wt, _ := strconv.ParseFloat(f.Rows[1][2], 64)
	if wt > wb {
		t.Errorf("no-write-allocate fetches more (%v) than write-allocate (%v)", wt, wb)
	}
	// But it must pay off-chip write traffic.
	wtW, _ := strconv.ParseFloat(f.Rows[1][3], 64)
	if wtW == 0 {
		t.Error("write-through shows no off-chip write traffic")
	}
	if len(f.Notes) == 0 {
		t.Error("no note")
	}
}

func TestExtStreamBuffer(t *testing.T) {
	f := fastHarness().ExtStreamBuffer()
	if len(f.Rows) != 2 {
		t.Fatalf("rows = %d", len(f.Rows))
	}
	for _, n := range f.Notes {
		if strings.Contains(n, "WARNING") {
			t.Errorf("reference-[4] mechanisms failed: %v", f.Notes)
		}
	}
	// Every mechanism must beat the bare hierarchy, and on the
	// general-purpose workload the exclusive L2 must beat both small
	// structures. (On tomcatv the victim cache can win — its seven
	// conflicting streams are exactly the case Jouppi 1990 built victim
	// caches for.)
	for i, row := range f.Rows {
		bare, _ := strconv.ParseFloat(row[1], 64)
		vc, _ := strconv.ParseFloat(row[2], 64)
		sb, _ := strconv.ParseFloat(row[3], 64)
		ex, _ := strconv.ParseFloat(row[4], 64)
		if vc >= bare || sb >= bare || ex >= bare {
			t.Errorf("%s: some mechanism failed to beat bare %.4f: %v", row[0], bare, row)
		}
		if i == 0 && (ex >= vc || ex >= sb) { // gcc1
			t.Errorf("gcc1: exclusive L2 (%.4f) did not beat victim (%.4f) / stream (%.4f)",
				ex, vc, sb)
		}
	}
}

// TestSimulateMatchesSystemRun is the oracle for the extension figures'
// one-stage evaluation: every point simulate hands a figure, whether a
// follower replayed it from its L1 group's pass or a direct reader ran
// it over the stage's chunks, must equal sweep.Evaluate's, which runs
// System.Run over a freshly generated stream, in every field but the
// workload name. It also checks that the figures still reach every kind
// of configuration the oracle is meant to cover.
func TestSimulateMatchesSystemRun(t *testing.T) {
	type call struct {
		w    spec.Workload
		cfgs []core.Config
		pts  []sweep.Point
	}
	var calls []call
	simulateTestHook = func(w spec.Workload, cfgs []core.Config, pts []sweep.Point) {
		calls = append(calls, call{w, cfgs, pts})
	}
	t.Cleanup(func() { simulateTestHook = nil })
	h := fastHarness()
	for _, id := range ExtensionIDs() {
		if _, err := h.ByID(id); err != nil {
			t.Fatalf("ByID(%s): %v", id, err)
		}
	}

	seen := map[string]bool{}
	seeds := map[uint64]bool{}
	opt := sweep.Options{Tech: h.cfg.Tech, Refs: h.cfg.Refs, OffChipNS: 50}
	for _, c := range calls {
		seeds[c.w.Gen.Seed] = true
		for i, cfg := range c.cfgs {
			want := sweep.Evaluate(c.w, cfg, opt)
			got := c.pts[i]
			want.Workload, got.Workload = "", ""
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s seed %#x %s (%+v): simulate = %+v, System.Run = %+v",
					c.w.Name, c.w.Gen.Seed, sweep.Label(cfg), cfg, got, want)
			}
			seen["policy "+cfg.Policy.String()] = true
			seen["writes "+cfg.Writes.String()] = true
			seen["line "+strconv.Itoa(cfg.L1I.LineSize)] = true
			if cfg.TwoLevel() {
				seen["l2 "+cfg.L2.Policy.String()] = true
				seen["l2 assoc "+strconv.Itoa(cfg.L2.Assoc)] = true
			}
		}
	}
	for _, want := range []string{
		"policy " + core.Conventional.String(), "policy " + core.Exclusive.String(),
		"policy " + core.Inclusive.String(), "writes " + core.WriteThroughNoAllocate.String(),
		"line 32", "line 64", "l2 " + cache.LRU.String(), "l2 " + cache.FIFO.String(),
		"l2 assoc 1", "l2 assoc 2", "l2 assoc 8",
	} {
		if !seen[want] {
			t.Errorf("no extension figure simulated a configuration with %s", want)
		}
	}
	if len(seeds) < 4 {
		t.Errorf("simulated %d generator seeds, want extseeds' 4 at least", len(seeds))
	}
}

// TestExtensionTraceAndMetrics checks that the extension figures report
// to the harness's sinks: extmr's 63 configurations read one trace stage
// per workload, each a generate span under TraceParent, and the
// simulated caches count into Metrics.
func TestExtensionTraceAndMetrics(t *testing.T) {
	tr := span.NewTracer()
	root := tr.Start(nil, "run")
	reg := obs.NewRegistry()
	h := NewHarness(Config{Refs: 20_000, Metrics: reg, Trace: tr, TraceParent: root})
	if _, err := h.ByID("extmr"); err != nil {
		t.Fatal(err)
	}
	generates := 0
	for _, d := range tr.Snapshot() {
		if d.Name == "generate" {
			if d.Parent != root.ID() {
				t.Errorf("generate span %d hangs under %d, want TraceParent %d", d.ID, d.Parent, root.ID())
			}
			generates++
		}
	}
	if want := len(spec.All()); generates != want {
		t.Errorf("extmr recorded %d generate spans, want %d (one stage per workload)", generates, want)
	}
	counters := reg.Snapshot().Counters
	for _, name := range []string{"cache_l1i_misses_total", "cache_l1d_misses_total", "cache_l1i_hits_total"} {
		if counters[name] == 0 {
			t.Errorf("counter %s = 0 after extmr", name)
		}
	}
}
