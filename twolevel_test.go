package twolevel_test

import (
	"go/parser"
	"go/token"
	"strconv"
	"strings"
	"testing"

	"twolevel"
)

// TestQuickstartFlow exercises the documented public-API flow end to end.
func TestQuickstartFlow(t *testing.T) {
	cfg := twolevel.Hierarchy{
		L1I:    twolevel.CacheConfig{Size: 4 << 10, LineSize: 16, Assoc: 1},
		L1D:    twolevel.CacheConfig{Size: 4 << 10, LineSize: 16, Assoc: 1},
		L2:     twolevel.CacheConfig{Size: 32 << 10, LineSize: 16, Assoc: 4, Policy: twolevel.Random},
		Policy: twolevel.Exclusive,
	}
	sys := twolevel.NewSystem(cfg)
	w, err := twolevel.WorkloadByName("gcc1")
	if err != nil {
		t.Fatal(err)
	}
	stats := sys.Run(w.Stream(100_000))
	if stats.Refs() != 100_000 {
		t.Fatalf("simulated %d refs", stats.Refs())
	}
	if stats.GlobalMissRate() <= 0 || stats.GlobalMissRate() >= 1 {
		t.Errorf("global miss rate %v implausible", stats.GlobalMissRate())
	}

	l1 := twolevel.OptimalTiming(twolevel.Paper05um,
		twolevel.TimingParams{Size: cfg.L1I.Size, LineSize: 16, Assoc: 1})
	l2 := twolevel.OptimalTiming(twolevel.Paper05um,
		twolevel.TimingParams{Size: cfg.L2.Size, LineSize: 16, Assoc: 4})
	m := twolevel.Machine{L1CycleNS: l1.CycleTime, L2CycleNS: l2.CycleTime, OffChipNS: 50, IssueRate: 1}
	tpi := m.TPI(stats)
	if tpi < l1.CycleTime {
		t.Errorf("TPI %.3f below the cycle time %.3f", tpi, l1.CycleTime)
	}
}

// TestSweepAndEnvelope exercises the design-space API at reduced scale.
func TestSweepAndEnvelope(t *testing.T) {
	w, err := twolevel.WorkloadByName("espresso")
	if err != nil {
		t.Fatal(err)
	}
	opt := twolevel.SweepOptions{Refs: 40_000, L1Sizes: []int64{1 << 10, 4 << 10, 16 << 10}}
	points := twolevel.Sweep(w, opt)
	if len(points) == 0 {
		t.Fatal("empty sweep")
	}
	env := twolevel.Envelope(points)
	if len(env) == 0 || len(env) > len(points) {
		t.Fatalf("envelope size %d of %d", len(env), len(points))
	}
	if _, ok := twolevel.BestAtArea(points, 1e12); !ok {
		t.Error("BestAtArea found nothing under an unlimited budget")
	}
}

// TestWorkloadRegistry covers the workload lookups.
func TestWorkloadRegistry(t *testing.T) {
	if got := len(twolevel.Workloads()); got != 7 {
		t.Errorf("Workloads() = %d", got)
	}
	names := twolevel.WorkloadNames()
	if len(names) != 7 || names[0] != "gcc1" {
		t.Errorf("WorkloadNames() = %v", names)
	}
	if _, err := twolevel.WorkloadByName("nope"); err == nil {
		t.Error("bad name accepted")
	}
}

// TestFigureFacade regenerates a cheap figure through the facade.
func TestFigureFacade(t *testing.T) {
	h := twolevel.NewFigureHarness(twolevel.FigureConfig{Refs: 30_000})
	ids := twolevel.FigureIDs()
	if len(ids) != 39 {
		t.Fatalf("FigureIDs() = %d, want 39", len(ids))
	}
	f, err := h.ByID("fig21")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := twolevel.RenderFigure(&sb, f); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Exclusion") {
		t.Errorf("rendered figure missing title:\n%s", sb.String())
	}
}

// TestCacheFacade exercises the single-cache API.
func TestCacheFacade(t *testing.T) {
	c := twolevel.NewCache(twolevel.CacheConfig{Size: 1 << 10, LineSize: 16, Assoc: 2, Policy: twolevel.LRU})
	if hit, _ := c.Access(0x40); hit {
		t.Error("cold access hit")
	}
	if hit, _ := c.Access(0x40); !hit {
		t.Error("warm access missed")
	}
	if twolevel.FormatSize(64<<10) != "64KB" {
		t.Error("FormatSize broken")
	}
}

// TestGeneratorFacade exercises the synthetic-stream API.
func TestGeneratorFacade(t *testing.T) {
	p := twolevel.GenParams{
		Name: "custom", Seed: 3, InstrFrac: 0.7,
		CodeBytes: 8 << 10, MeanRun: 5, ITheta: 1.3,
		DataLines: 512, DTheta: 1.3, DNewFrac: 0.01,
	}
	s := twolevel.Generate(p, 1000)
	n := 0
	for {
		if _, ok := s.Next(); !ok {
			break
		}
		n++
	}
	if n != 1000 {
		t.Errorf("generated %d refs", n)
	}
}

// TestFacadeCoverage exercises the remaining facade wrappers.
func TestFacadeCoverage(t *testing.T) {
	// Stream utilities.
	p := twolevel.GenParams{
		Name: "f", Seed: 9, InstrFrac: 0.8,
		CodeBytes: 4 << 10, MeanRun: 5, ITheta: 1.4,
		DataLines: 256, DTheta: 1.4, DNewFrac: 0.01,
	}
	g := twolevel.NewGenerator(p)
	limited := twolevel.Limit(g, 500)
	prof := twolevel.Analyze(limited)
	if prof.Refs != 500 {
		t.Errorf("Analyze over Limit counted %d refs", prof.Refs)
	}

	// Timing and area.
	tp := twolevel.TimingParams{Size: 8 << 10, LineSize: 16, Assoc: 1}
	if a := twolevel.CacheAreaOptimal(twolevel.Paper05um, tp); a <= 0 {
		t.Errorf("CacheAreaOptimal = %v", a)
	}

	// Sweeps.
	opt := twolevel.SweepOptions{Refs: 10_000, L1Sizes: []int64{4 << 10}, L2Sizes: []int64{0, 32 << 10}}
	cfgs := twolevel.SweepConfigs(opt)
	if len(cfgs) != 2 {
		t.Fatalf("SweepConfigs = %d", len(cfgs))
	}
	w, err := twolevel.WorkloadByName("espresso")
	if err != nil {
		t.Fatal(err)
	}
	pt := twolevel.EvaluatePoint(w, cfgs[1], opt)
	if pt.Label != "4:32" || pt.TPINS <= 0 {
		t.Errorf("EvaluatePoint = %+v", pt)
	}

	// Victim cache.
	vc, err := twolevel.NewVictimCacheSystem(4<<10, 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	vc.Access(twolevel.Ref{Kind: twolevel.Data, Addr: 0x100})
	if vc.Stats().Refs() != 1 {
		t.Error("victim system did not count the reference")
	}

	// Multicycle model.
	mm := twolevel.MulticycleMachine{
		DatapathCycleNS: 2, L1AccessNS: 3, OffChipNS: 50, IssueRate: 1,
	}
	if mm.L1Stages() != 2 {
		t.Errorf("L1Stages = %d", mm.L1Stages())
	}
}

// TestFacadeImports keeps the facade to the reproduction API: the
// serving stack (jobs, stores, loadgen, chaos, spans, metrics, the fast
// tier) is reached through the commands, never re-exported here.
func TestFacadeImports(t *testing.T) {
	allowed := map[string]bool{"io": true}
	for _, p := range []string{"area", "cache", "core", "figures", "perf", "spec", "sweep", "timing", "trace"} {
		allowed["twolevel/internal/"+p] = true
	}
	f, err := parser.ParseFile(token.NewFileSet(), "twolevel.go", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		if !allowed[path] {
			t.Errorf("twolevel.go imports %q, outside the reproduction API", path)
		}
	}
}
