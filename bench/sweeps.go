package main

// The sweep workloads run the paper's headline experiment: split
// direct-mapped L1s of 1–256 KB, each with every paper L2 size
// (9 × PaperL2Sizes = 45 configurations), over the seven SPEC workloads
// at 2M references, with a 4-way pseudo-random L2 and 50 ns off-chip.
//
//   - paper-exact: timed passes of sweep.RunContext, conventional policy.
//     About three quarters of a pass is L1 simulation and an eighth is
//     trace generation.
//   - paper-exclusive: the same under core.Exclusive, which couples L1
//     to L2, so an optimisation that relies on the L1 being independent
//     of the L2 must bypass it.
//   - paper-fast: timed passes of model.RunContext, the analytical tier:
//     generation and reuse-distance profiling, no cache simulation.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/metrics"
	"time"

	"twolevel/internal/core"
	"twolevel/internal/model"
	"twolevel/internal/obs/span"
	"twolevel/internal/spec"
	"twolevel/internal/sweep"
	"twolevel/internal/trace"
)

type tier int

const (
	tierExact tier = iota
	tierFast
)

const (
	tinyRefs  = 20000
	minPasses = 2
	// Seed-0 accuracy gate of the fast tier against exact simulation.
	maxTPIErrPct   = 5
	minWinAgreePct = 90
)

// seed0Digests pins the SHA-256 of the twolevel-sweep/1 document
// (sweep.SaveJSON over the seven workloads' points, in Table-1 order)
// that one full-size pass produces at seed 0. A change that moves any
// counter, price or TPI changes the digest.
var seed0Digests = map[string]string{
	"paper-exact":     "826bc0073e8aa0caab6e2994f363ff7419f042e5675be737d022959df20ccb7b",
	"paper-exclusive": "f07a3bfc85ce30f9fb26095d928a898c80893b556f840c4174a3b56eeb3ff29d",
	"paper-fast":      "d2183ee11cb349e2d3f559d2c86ce3f72b6ea1fe8dcdf535f0a117bc0f35f14f",
}

// seededWorkloads returns the seven SPEC workloads with seed mixed into
// each generator seed. Seed 0 keeps the calibrated paper seeds.
func seededWorkloads(seed uint64) []spec.Workload {
	ws := spec.All()
	if seed != 0 {
		for i := range ws {
			ws[i].Gen.Seed ^= splitmix64(seed)
		}
	}
	return ws
}

func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

type sweepRun struct {
	name   string
	tier   tier
	o      options
	traced bool
	ws     []spec.Workload
	opt    sweep.Options
}

func sweepSetup(name string, t tier, policy core.Policy) func(options, bool) (workload, error) {
	return func(o options, traced bool) (workload, error) {
		refs := uint64(spec.DefaultRefs)
		if o.tiny {
			refs = tinyRefs
		}
		s := &sweepRun{
			name: name, tier: t, o: o, traced: traced, ws: seededWorkloads(o.seed),
			opt: sweep.Options{Policy: policy, Workers: nproc(), Refs: refs}.Defaulted(),
		}
		// Warm up with the same sweep at smoke-test length, so code,
		// lazy initialization and the heap are warm before timing.
		warm := s.opt
		warm.Refs = tinyRefs
		for _, w := range s.ws {
			if _, err := s.sweepOne(w, warm); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		return s, nil
	}
}

func (s *sweepRun) measure() (*result, error) {
	if s.traced {
		return s.tracedRun()
	}
	return s.untraced()
}

func (s *sweepRun) close() error { return nil }

// sweepOne sweeps one workload on the workload's tier.
func (s *sweepRun) sweepOne(w spec.Workload, opt sweep.Options) ([]sweep.Point, error) {
	if s.tier == tierFast {
		return model.RunContext(context.Background(), w, opt)
	}
	return sweep.RunContext(context.Background(), w, opt)
}

// call is one timed sweep of one workload.
type call struct {
	dur    time.Duration
	peakMB float64 // peak resident set while the sweep ran
	rt     goStats // runtime counters over the sweep
}

// timeSweep runs f as one timed sweep. The heap is left as the previous
// sweep left it, as it is in a real multi-workload sweep; forcing a
// collection here would reset the GC pacer and change what is measured.
func timeSweep(f func()) call {
	resetPeakRSS()
	g0 := readGoStats()
	t0 := time.Now()
	f()
	dur := time.Since(t0)
	return call{dur: dur, peakMB: peakRSSMB(), rt: readGoStats().sub(g0)}
}

// passResult is one timed pass. Its wall time is the sum of the seven
// timed sweeps.
type passResult struct {
	points []sweep.Point
	calls  []call
	wall   time.Duration
	rt     goStats
}

func (p *passResult) add(pts []sweep.Point, c call) {
	p.points = append(p.points, pts...)
	p.calls = append(p.calls, c)
	p.wall += c.dur
	p.rt = p.rt.add(c.rt)
}

// pass runs the workload's tier over all seven workloads.
func (s *sweepRun) pass(res *result) passResult {
	var p passResult
	for _, w := range s.ws {
		p.add(s.sweepTimed(res, w))
	}
	return p
}

// sweepTimed is one timed sweep of w on the workload's tier, counted in
// res.
func (s *sweepRun) sweepTimed(res *result, w spec.Workload) ([]sweep.Point, call) {
	want := len(sweep.Configs(s.opt))
	var (
		pts []sweep.Point
		err error
	)
	c := timeSweep(func() { pts, err = s.sweepOne(w, s.opt) })
	res.Attempted += want
	if err != nil || len(pts) != want {
		res.Failed += want - len(pts)
		res.problem("%s: %d of %d points: %v", w.Name, len(pts), want, err)
	}
	return pts, c
}

// untraced measures timed passes until the run's budget is spent: after
// minPasses, a further pass starts only while at least half of it fits.
func (s *sweepRun) untraced() (*result, error) {
	res := newResult()
	budget := time.Duration(s.o.seconds) * time.Second
	var passes, calls, peaks []float64
	var first []sweep.Point
	var firstDigest string
	start := time.Now()
	for {
		p := s.pass(res)
		passes = append(passes, seconds(p.wall))
		for _, c := range p.calls {
			calls = append(calls, ms(c.dur))
			peaks = append(peaks, c.peakMB)
		}
		d, err := digest(p.points)
		if err != nil {
			return nil, err
		}
		if first == nil {
			first, firstDigest = p.points, d
		} else if d != firstDigest {
			res.problem("pass %d produced a different document than pass 1", len(passes))
		}
		if s.o.tiny || len(passes) >= minPasses && time.Since(start)+p.wall/2 >= budget {
			break
		}
	}
	res.setSamples("peak_rss_mb", peaks, mean, "MB")
	res.setSamples("sweep_s", passes, median, "s")
	res.set("p50_ms", percentile(calls, 0.5), "ms", len(calls))
	res.set("p90_ms", percentile(calls, 0.9), "ms", len(calls))
	res.set("failed_frac", float64(res.Failed)/float64(res.Attempted), "ratio", res.Attempted)
	s.check(res, first, firstDigest)
	if err := s.spotCheck(res, first); err != nil {
		return nil, err
	}
	return res, nil
}

// check validates a pass's points and, at seed 0, its pinned digest.
func (s *sweepRun) check(res *result, points []sweep.Point, d string) {
	for _, p := range validatePoints(points, s.ws, s.opt) {
		res.problem("%s", p)
	}
	if s.o.seed == 0 && !s.o.tiny {
		if want := seed0Digests[s.name]; d != want {
			res.problem("seed-0 document digest %s, want %s", d, want)
		}
	}
}

// spotCheck recomputes one configuration per workload on the direct
// path and requires the pass's point for it to match field by field.
func (s *sweepRun) spotCheck(res *result, points []sweep.Point) error {
	byKey := map[string]sweep.Point{}
	for _, p := range points {
		byKey[p.Workload+"/"+p.Label] = p
	}
	cfgs := sweep.Configs(s.opt)
	d := newDirectPath(nil, 1)
	for i, w := range s.ws {
		cfg := cfgs[(int(s.o.seed%uint64(len(cfgs)))+7*i)%len(cfgs)]
		var (
			got []sweep.Point
			err error
		)
		if s.tier == tierFast {
			var prof *model.Profile
			if prof, err = model.Collect(context.Background(), w, s.opt); err != nil {
				return err
			}
			got, err = d.predictAll(nil, prof, []core.Config{cfg}, s.opt)
		} else {
			refs := trace.Collect(w.Stream(s.opt.Refs), 0)
			got, err = d.evalAll(nil, w.Name, refs, []core.Config{cfg}, s.opt)
		}
		if err != nil {
			return err
		}
		if want := byKey[w.Name+"/"+sweep.Label(cfg)]; !reflect.DeepEqual(got[0], want) {
			res.problem("%s %s: direct path gives %+v, the pass gave %+v", w.Name, sweep.Label(cfg), got[0], want)
		}
	}
	return nil
}

// tracedRun is the per-layer run: an untraced pass of the workload's tier
// as the reference and the same work on the traced direct path (which
// must reproduce it), alternating workload by workload so a change in
// the host's speed hits both alike; then the other tier on the direct
// path as a cross-check, and a tracing-overhead probe.
func (s *sweepRun) tracedRun() (*result, error) {
	res := newResult()
	tr := span.NewTracer()
	root := tr.Start(nil, "bench", span.Attr{Key: "workload", Value: s.name}, span.Attr{Key: "seed", Value: fmt.Sprint(s.o.seed)})

	prim := newDirectPath(tr, nproc())
	var ref passResult
	var direct []sweep.Point
	var wall time.Duration
	for _, w := range s.ws {
		rs := tr.Start(root, "untraced RunContext", span.Attr{Key: "workload", Value: w.Name})
		ref.add(s.sweepTimed(res, w))
		rs.End()
		pts, dur, err := s.directOne(prim, root, s.tier, w)
		if err != nil {
			return nil, err
		}
		direct = append(direct, pts...)
		wall += dur
	}
	d, err := digest(ref.points)
	if err != nil {
		return nil, err
	}
	s.check(res, ref.points, d)
	if !reflect.DeepEqual(direct, ref.points) {
		res.problem("the traced direct path does not reproduce the %s pass: %s", s.name, firstDiff(direct, ref.points))
	}

	other := tierFast
	if s.tier == tierFast {
		other = tierExact
	}
	cross := newDirectPath(tr, nproc())
	cs := tr.Start(root, "cross-check pass")
	var crossPts []sweep.Point
	for _, w := range s.ws {
		pts, _, err := s.directOne(cross, cs, other, w)
		if err != nil {
			return nil, err
		}
		crossPts = append(crossPts, pts...)
	}
	cs.End()
	exactPts, fastPts := direct, crossPts
	if s.tier == tierFast {
		exactPts, fastPts = crossPts, direct
	}
	rep, err := accuracy(exactPts, fastPts)
	if err != nil {
		return nil, err
	}
	errPct, agreePct := 100*rep.MeanAbsTPIErr, 100*rep.WinnerAgreement
	if s.tier == tierFast && s.o.seed == 0 && !s.o.tiny && (errPct > maxTPIErrPct || agreePct < minWinAgreePct) {
		res.problem("fast tier at seed 0: mean |TPI error| %.2f%% (max %d%%), winner agreement %.1f%% (min %d%%)",
			errPct, maxTPIErrPct, agreePct, minWinAgreePct)
	}
	res.set("model.tpi_err_pct", errPct, "%", len(exactPts))
	res.set("model.winner_agree_pct", agreePct, "%", len(s.ws))

	over := s.overhead()
	root.End()

	res.set("sweep.attributed_frac", float64(wall)/float64(ref.wall), "ratio", 1)
	res.set("sweep.worker_busy_frac", float64(prim.busyTotal())/float64(wall)/float64(nproc()), "ratio", 1)
	prim.merge(cross)
	prim.layerMetrics(res)
	ref.rt.report(res, 1)
	res.set("bench.trace_overhead_frac", over, "ratio", 1)
	return res, tr.WriteFile(traceFile(s.o, s.name))
}

// directOne runs tier t for w on path d, timed as a pass times a sweep.
func (s *sweepRun) directOne(d *directPath, parent *span.Span, t tier, w spec.Workload) (pts []sweep.Point, dur time.Duration, err error) {
	dur = timeSweep(func() {
		if t == tierFast {
			pts, err = d.fast(parent, w, s.opt)
		} else {
			pts, err = d.exact(parent, w, s.opt)
		}
	}).dur
	return pts, dur, err
}

// overhead probes tracing cost on the first workload's configurations:
// exact evaluation over a generated trace, or prediction from a
// collected profile. The probe repeats calls that succeeded in the pass,
// so their errors are moot.
func (s *sweepRun) overhead() float64 {
	w := s.ws[0]
	cfgs := sweep.Configs(s.opt)
	if s.tier == tierFast {
		prof, err := model.Collect(context.Background(), w, s.opt)
		if err != nil {
			return math.NaN()
		}
		return overhead(20, 1, func(d *directPath) { _, _ = d.predictAll(nil, prof, cfgs, s.opt) })
	}
	refs := trace.Collect(w.Stream(s.opt.Refs), 0)
	return overhead(2, nproc(), func(d *directPath) { _, _ = d.evalAll(nil, w.Name, refs, cfgs, s.opt) })
}

// digest is the SHA-256 of the points' twolevel-sweep/1 document.
func digest(points []sweep.Point) (string, error) {
	h := sha256.New()
	if err := sweep.SaveJSON(h, points); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// validatePoints checks each workload's points cover the configuration
// space once and each point's counters are self-consistent.
func validatePoints(points []sweep.Point, ws []spec.Workload, opt sweep.Options) []string {
	var bad []string
	labels := map[string]bool{}
	for _, cfg := range sweep.Configs(opt) {
		labels[sweep.Label(cfg)] = true
	}
	seen := map[string]int{}
	for _, p := range points {
		seen[p.Workload]++
		st := p.Stats
		var why string
		switch {
		case !labels[p.Label]:
			why = "unexpected label"
		case !(p.TPINS > 0) || math.IsInf(p.TPINS, 0) || !(p.AreaRbe > 0):
			why = fmt.Sprintf("tpi %v area %v", p.TPINS, p.AreaRbe)
		case st.Refs() != opt.Refs:
			why = fmt.Sprintf("%d references, want %d", st.Refs(), opt.Refs)
		case st.L1IHits+st.L1IMisses != st.InstrRefs || st.L1DHits+st.L1DMisses != st.DataRefs:
			why = "L1 hits + misses != references"
		case p.TwoLevel() && (st.L2Hits+st.L2Misses != st.L1Misses() || st.OffChipFetches != st.L2Misses):
			why = "L2 probes != L1 misses or off-chip fetches != L2 misses"
		case !p.TwoLevel() && (st.L2Hits+st.L2Misses != 0 || st.OffChipFetches != st.L1Misses()):
			why = "single-level off-chip fetches != L1 misses"
		}
		if why != "" {
			bad = append(bad, fmt.Sprintf("%s %s: %s", p.Workload, p.Label, why))
		}
	}
	for _, w := range ws {
		if seen[w.Name] != len(labels) {
			bad = append(bad, fmt.Sprintf("%s: %d points, want %d", w.Name, seen[w.Name], len(labels)))
		}
	}
	return bad
}

// firstDiff describes the first point at which two point lists differ.
func firstDiff(a, b []sweep.Point) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d points vs %d", len(a), len(b))
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			return fmt.Sprintf("point %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	return "no difference"
}

// goStats is a snapshot of the Go runtime's allocation and GC counters.
type goStats struct {
	alloc, gcCycles uint64
	gcCPU, cpu      float64
}

func readGoStats() goStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(samples)
	return goStats{alloc: ms.TotalAlloc, gcCycles: uint64(ms.NumGC), gcCPU: samples[0].Value.Float64(), cpu: samples[1].Value.Float64()}
}

func (g goStats) sub(o goStats) goStats {
	return goStats{alloc: g.alloc - o.alloc, gcCycles: g.gcCycles - o.gcCycles, gcCPU: g.gcCPU - o.gcCPU, cpu: g.cpu - o.cpu}
}

func (g goStats) add(o goStats) goStats {
	return goStats{alloc: g.alloc + o.alloc, gcCycles: g.gcCycles + o.gcCycles, gcCPU: g.gcCPU + o.gcCPU, cpu: g.cpu + o.cpu}
}

// report records the runtime costs of the counted work, spread over the
// given number of passes.
func (g goStats) report(res *result, passes int) {
	res.set("go.alloc_mb_per_pass", float64(g.alloc)/(1<<20)/float64(passes), "MB", passes)
	res.set("go.gc_cycles", float64(g.gcCycles), "count", passes)
	res.set("go.gc_cpu_frac", ratio(g.gcCPU, g.cpu), "ratio", passes)
}

func traceFile(o options, workload string) string {
	return filepath.Join(o.out, fmt.Sprintf("%s.seed%d.trace.json", workload, o.seed))
}
