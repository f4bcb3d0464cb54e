// Package figures regenerates the data behind every table and figure in
// the paper's evaluation. Each figure function returns a Figure holding
// the plotted series as (area, TPI) or (area, time) points plus computed
// notes that record the shape claims the paper makes about that figure
// (where the minimum falls, which configurations lie on the envelope,
// where crossovers happen). cmd/figures renders them as text;
// bench_test.go regenerates each one under `go test -bench`.
package figures

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"twolevel/internal/area"
	"twolevel/internal/cache"
	"twolevel/internal/core"
	"twolevel/internal/obs"
	"twolevel/internal/obs/span"
	"twolevel/internal/spec"
	"twolevel/internal/sweep"
	"twolevel/internal/timing"
	"twolevel/internal/trace"
)

// XY is one plotted point.
type XY struct {
	// X is chip area in rbe; Y is TPI or time in ns (per the figure).
	X, Y float64
	// Label is the configuration tag, e.g. "8:64" or "32K".
	Label string
}

// Series is one line of a figure.
type Series struct {
	Name   string
	Points []XY
}

// Figure is the regenerated data for one paper figure or table.
type Figure struct {
	// ID is the short identifier, e.g. "fig5" or "table1".
	ID string
	// Title is the paper's caption.
	Title string
	// XLabel and YLabel name the axes for series-style figures.
	XLabel, YLabel string
	// Series holds the plotted lines (empty for tabular figures).
	Series []Series
	// Header and Rows hold tabular data (Table 1, Figure 21).
	Header []string
	Rows   [][]string
	// Notes record computed shape observations for EXPERIMENTS.md.
	Notes []string
}

// Config adjusts the harness.
type Config struct {
	// Refs is the trace length per configuration (default
	// spec.DefaultRefs).
	Refs uint64
	// Tech overrides the technology (default: the paper's 0.5µm).
	Tech timing.Tech
	// Context, when non-nil, cancels the harness's design-space sweeps:
	// once it is done, figure generation finishes fast with partial data
	// and ByID reports the cancellation.
	Context context.Context
	// Store, when non-nil, serves every sweep point it already holds and
	// stores each one evaluated, so an interrupted run can resume (see
	// sweep.Options.Store).
	Store sweep.PointStore
	// Metrics, when non-nil, receives live sweep and simulator
	// instrumentation (see internal/obs and the sweep.Metric* names).
	Metrics *obs.Registry
	// Events, when non-nil, receives each sweep's structured run journal.
	Events *obs.EventLog
	// Trace, when non-nil, records every design-space sweep as a span
	// tree (sweep → config → attempt → simulate) under TraceParent.
	Trace *span.Tracer
	// TraceParent is the span new sweep spans attach to; nil roots them.
	TraceParent *span.Span
}

func (c Config) withDefaults() Config {
	if c.Refs == 0 {
		c.Refs = spec.DefaultRefs
	}
	if c.Tech == (timing.Tech{}) {
		c.Tech = timing.Paper05um
	}
	return c
}

// Harness generates figures, memoizing design-space sweeps so figures
// that share a sweep (e.g. Figures 3 and 5) pay for it once.
type Harness struct {
	cfg    Config
	mu     sync.Mutex
	sweeps map[string][]sweep.Point
	err    error // first sweep failure (e.g. cancellation)
}

// NewHarness builds a harness.
func NewHarness(cfg Config) *Harness {
	return &Harness{cfg: cfg.withDefaults(), sweeps: make(map[string][]sweep.Point)}
}

// options builds the sweep options for this harness.
func (h *Harness) options(offNS float64, l2assoc int, pol core.Policy, dual bool) sweep.Options {
	return sweep.Options{
		Tech:       h.cfg.Tech,
		OffChipNS:  offNS,
		L2Assoc:    l2assoc,
		Policy:     pol,
		DualPorted: dual,
		Refs:       h.cfg.Refs,
	}
}

// runSweep runs (or reuses) the full design-space sweep for one workload
// under the given options. Failures (cancellation, bad configurations)
// are remembered on the harness — figure generation continues with the
// partial points and ByID surfaces the error.
func (h *Harness) runSweep(w spec.Workload, opt sweep.Options) []sweep.Point {
	key := fmt.Sprintf("%s/%v/%d/%v/%v/%d", w.Name, opt.OffChipNS, opt.L2Assoc, opt.Policy, opt.DualPorted, opt.Refs)
	h.mu.Lock()
	pts, ok := h.sweeps[key]
	h.mu.Unlock()
	if ok {
		return pts
	}
	ctx := h.cfg.Context
	if ctx == nil {
		ctx = context.Background()
	}
	opt.Store = h.cfg.Store
	opt.Metrics = h.cfg.Metrics
	opt.Events = h.cfg.Events
	opt.Trace = h.cfg.Trace
	opt.TraceParent = h.cfg.TraceParent
	pts, err := sweep.RunContext(ctx, w, opt)
	h.mu.Lock()
	defer h.mu.Unlock()
	if err != nil {
		if h.err == nil {
			h.err = err
		}
		// Do not memoize a partial sweep.
		return pts
	}
	h.sweeps[key] = pts
	return pts
}

// Err reports the first sweep failure the harness has seen (nil when all
// sweeps so far completed).
func (h *Harness) Err() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.err
}

func toXY(points []sweep.Point) []XY {
	out := make([]XY, len(points))
	for i, p := range points {
		out[i] = XY{X: p.AreaRbe, Y: p.TPINS, Label: p.Label}
	}
	return out
}

func singleLevel(points []sweep.Point) []sweep.Point {
	return sweep.Filter(points, func(p sweep.Point) bool { return !p.TwoLevel() })
}

func twoLevel(points []sweep.Point) []sweep.Point {
	return sweep.Filter(points, func(p sweep.Point) bool { return p.TwoLevel() })
}

func mustWorkload(name string) spec.Workload {
	w, err := spec.ByName(name)
	if err != nil {
		panic(err)
	}
	return w
}

// ---- Table 1 ----

// Table1 reproduces the paper's Table 1: per-workload instruction and
// data reference counts, alongside the synthetic generator's measured
// instruction/data split over the harness trace length.
func (h *Harness) Table1() Figure {
	f := Figure{
		ID:     "table1",
		Title:  "Test program references",
		Header: []string{"Program", "Paper instr", "Paper data", "Paper total", "Gen instr frac (paper)", "Gen instr frac (measured)"},
	}
	for _, w := range spec.All() {
		instr, data := trace.Count(w.Stream(h.cfg.Refs))
		measured := float64(instr) / float64(instr+data)
		f.Rows = append(f.Rows, []string{
			w.Name,
			fmt.Sprintf("%.1fM", float64(w.Table1Instr)/1e6),
			fmt.Sprintf("%.1fM", float64(w.Table1Data)/1e6),
			fmt.Sprintf("%.1fM", float64(w.Table1Total())/1e6),
			fmt.Sprintf("%.3f", w.InstrFrac()),
			fmt.Sprintf("%.3f", measured),
		})
		if diff := measured - w.InstrFrac(); diff > 0.01 || diff < -0.01 {
			f.Notes = append(f.Notes, fmt.Sprintf("%s: measured instruction fraction deviates by %+.3f", w.Name, diff))
		}
	}
	if len(f.Notes) == 0 {
		f.Notes = append(f.Notes, "all measured instruction fractions within ±0.01 of Table 1")
	}
	return f
}

// ---- Figures 1 and 2: time model ----

// Figure1 reproduces Figure 1: access and cycle times of direct-mapped
// first-level caches, 1KB–256KB, against their area.
func (h *Harness) Figure1() Figure {
	f := Figure{
		ID: "fig1", Title: "First level cache access and cycle times",
		XLabel: "area (rbe)", YLabel: "time (ns)",
	}
	var acc, cyc Series
	acc.Name, cyc.Name = "access time", "cycle time"
	var first, last float64
	for kb := int64(1); kb <= 256; kb *= 2 {
		p := timing.Params{Size: kb << 10, LineSize: 16, Assoc: 1, OutputBits: 64, Ports: 1}
		r := timing.Optimal(h.cfg.Tech, p)
		a := cacheArea(p, r.Org)
		label := fmt.Sprintf("%dK", kb)
		acc.Points = append(acc.Points, XY{X: a, Y: r.AccessTime, Label: label})
		cyc.Points = append(cyc.Points, XY{X: a, Y: r.CycleTime, Label: label})
		if kb == 1 {
			first = r.CycleTime
		}
		if kb == 256 {
			last = r.CycleTime
		}
	}
	f.Series = []Series{acc, cyc}
	f.Notes = append(f.Notes, fmt.Sprintf(
		"cycle-time spread 1KB→256KB = %.2fx (paper §2.1: about 1.8x)", last/first))
	return f
}

// Figure2 reproduces Figure 2: L2 access and cycle times (raw and rounded
// to CPU cycles) with 4KB L1 caches.
func (h *Harness) Figure2() Figure {
	f := Figure{
		ID: "fig2", Title: "L2 access and cycle times with 4KB L1 caches",
		XLabel: "area (rbe)", YLabel: "time (ns) / CPU cycles",
	}
	l1 := timing.Optimal(h.cfg.Tech, timing.Params{Size: 4 << 10, LineSize: 16, Assoc: 1, OutputBits: 64})
	var acc, cyc, cycles Series
	acc.Name, cyc.Name, cycles.Name = "access time (ns)", "cycle time rounded (ns)", "access time (L1 cycles)"
	for kb := int64(8); kb <= 256; kb *= 2 {
		p := timing.Params{Size: kb << 10, LineSize: 16, Assoc: 4, OutputBits: 64}
		r := timing.Optimal(h.cfg.Tech, p)
		a := cacheArea(p, r.Org)
		label := fmt.Sprintf("%dK", kb)
		n := int((r.CycleTime + l1.CycleTime - 1e-9) / l1.CycleTime)
		rounded := float64(n) * l1.CycleTime
		acc.Points = append(acc.Points, XY{X: a, Y: r.AccessTime, Label: label})
		cyc.Points = append(cyc.Points, XY{X: a, Y: rounded, Label: label})
		cycles.Points = append(cycles.Points, XY{X: a, Y: float64(n), Label: label})
	}
	f.Series = []Series{acc, cyc, cycles}
	f.Notes = append(f.Notes,
		fmt.Sprintf("4KB L1 cycle = %.2f ns; on-chip L2 reachable in %0.f–%0.f CPU cycles (paper: far closer than off-chip)",
			l1.CycleTime, cycles.Points[0].Y, cycles.Points[len(cycles.Points)-1].Y))
	return f
}

// ---- Figures 3–4: single-level caching ----

// singleLevelFigure builds the Figure-3/4 style plot for some workloads.
func (h *Harness) singleLevelFigure(id, title string, names []string) Figure {
	f := Figure{ID: id, Title: title, XLabel: "area (rbe)", YLabel: "TPI (ns)"}
	for _, name := range names {
		w := mustWorkload(name)
		pts := singleLevel(h.runSweep(w, h.options(50, 4, core.Conventional, false)))
		f.Series = append(f.Series, Series{Name: name, Points: toXY(pts)})
		if best, ok := sweep.MinTPI(pts); ok {
			l1kb := best.Config.L1I.Size >> 10
			status := "within"
			if l1kb < 8 || l1kb > 128 {
				status = "OUTSIDE"
			}
			f.Notes = append(f.Notes, fmt.Sprintf(
				"%s: TPI minimum at %dKB L1 (%s paper's 8KB–128KB range)", name, l1kb, status))
		}
	}
	return f
}

// Figure3 reproduces Figure 3 (gcc1, espresso, doduc, fpppp; 50ns, L1 only).
func (h *Harness) Figure3() Figure {
	return h.singleLevelFigure("fig3",
		"gcc1, espresso, doduc, and fpppp: 50ns off-chip service time, L1 only",
		[]string{"gcc1", "espresso", "doduc", "fpppp"})
}

// Figure4 reproduces Figure 4 (li, eqntott, tomcatv; 50ns, L1 only).
func (h *Harness) Figure4() Figure {
	return h.singleLevelFigure("fig4",
		"li, eqntott, and tomcatv: 50ns off-chip service time, L1 only",
		[]string{"li", "eqntott", "tomcatv"})
}

// ---- Envelope figures (5–9, 17–20, 22–26) ----

// envelopeFigure builds a two-level-versus-single-level envelope figure.
// showAll includes the full configuration scatter (the paper does this
// for the gcc1 figures).
func (h *Harness) envelopeFigure(id, title string, names []string, opt sweep.Options, showAll bool) Figure {
	f := Figure{ID: id, Title: title, XLabel: "area (rbe)", YLabel: "TPI (ns)"}
	for _, name := range names {
		w := mustWorkload(name)
		pts := h.runSweep(w, opt)
		oneEnv := sweep.Envelope(singleLevel(pts))
		bestEnv := sweep.Envelope(pts)
		prefix := ""
		if len(names) > 1 {
			prefix = name + " "
		}
		if showAll {
			f.Series = append(f.Series, Series{Name: prefix + "all configs", Points: toXY(pts)})
		}
		f.Series = append(f.Series,
			Series{Name: prefix + "1-level only", Points: toXY(oneEnv)},
			Series{Name: prefix + "best config", Points: toXY(bestEnv)},
		)
		f.Notes = append(f.Notes, envelopeNotes(name, pts, oneEnv, bestEnv)...)
	}
	return f
}

// envelopeNotes summarizes which configurations make the envelope and
// where two-level configurations start to dominate.
func envelopeNotes(name string, all, oneEnv, bestEnv []sweep.Point) []string {
	var notes []string
	nSingle, nTwo := 0, 0
	firstTwo := 0.0
	var labels []string
	for _, p := range bestEnv {
		labels = append(labels, p.Label)
		if p.TwoLevel() {
			nTwo++
			if firstTwo == 0 {
				firstTwo = p.AreaRbe
			}
		} else {
			nSingle++
		}
	}
	notes = append(notes, fmt.Sprintf("%s: envelope = %s", name, strings.Join(labels, " ")))
	notes = append(notes, fmt.Sprintf(
		"%s: %d single-level and %d two-level configs on the envelope", name, nSingle, nTwo))
	if nTwo > 0 {
		notes = append(notes, fmt.Sprintf(
			"%s: first two-level config on the envelope at %.0f rbe", name, firstTwo))
	}
	// Quantify the envelope separation: mean TPI advantage of the best
	// config over the best single-level config at the areas where both
	// exist.
	gap, n := 0.0, 0
	for _, p := range bestEnv {
		if bp, ok := sweep.BestAtArea(oneEnv, p.AreaRbe); ok {
			gap += bp.TPINS/p.TPINS - 1
			n++
		}
	}
	if n > 0 {
		notes = append(notes, fmt.Sprintf(
			"%s: best config beats single-level by %.1f%% TPI on average along the envelope",
			name, 100*gap/float64(n)))
	}
	return notes
}

// Figure5 reproduces Figure 5 (gcc1; 50ns; 4-way L2; conventional).
func (h *Harness) Figure5() Figure {
	return h.envelopeFigure("fig5", "gcc1: 50ns off-chip, L2 4-way set-associative",
		[]string{"gcc1"}, h.options(50, 4, core.Conventional, false), true)
}

// Figure6 reproduces Figure 6 (doduc and espresso).
func (h *Harness) Figure6() Figure {
	return h.envelopeFigure("fig6", "doduc and espresso: 50ns off-chip, L2 4-way set-associative",
		[]string{"doduc", "espresso"}, h.options(50, 4, core.Conventional, false), false)
}

// Figure7 reproduces Figure 7 (fpppp and li).
func (h *Harness) Figure7() Figure {
	return h.envelopeFigure("fig7", "fpppp and li: 50ns off-chip, L2 4-way set-associative",
		[]string{"fpppp", "li"}, h.options(50, 4, core.Conventional, false), false)
}

// Figure8 reproduces Figure 8 (tomcatv and eqntott).
func (h *Harness) Figure8() Figure {
	return h.envelopeFigure("fig8", "tomcatv and eqntott: 50ns off-chip, L2 4-way set-associative",
		[]string{"tomcatv", "eqntott"}, h.options(50, 4, core.Conventional, false), false)
}

// Figure9 reproduces Figure 9 (gcc1; direct-mapped L2).
func (h *Harness) Figure9() Figure {
	f := h.envelopeFigure("fig9", "gcc1: 50ns off-chip, L2 direct-mapped",
		[]string{"gcc1"}, h.options(50, 1, core.Conventional, false), true)
	// §5's comparison: 4-way versus direct-mapped second level.
	w := mustWorkload("gcc1")
	dm := h.runSweep(w, h.options(50, 1, core.Conventional, false))
	sa := h.runSweep(w, h.options(50, 4, core.Conventional, false))
	adv := sweep.EnvelopeAdvantage(sa, dm)
	f.Notes = append(f.Notes, fmt.Sprintf(
		"gcc1: 4-way L2 envelope beats direct-mapped L2 envelope by %.1f%% on average (paper §5: slightly better)",
		100*(adv-1)))
	return f
}

// ---- Figures 10–16: dual-ported first-level caches ----

// dualPortedFigure builds a Figure-10-style plot: base single-level,
// dual-ported single-level, and the best dual-ported two-level envelope.
func (h *Harness) dualPortedFigure(id, name string) Figure {
	f := Figure{
		ID: id, Title: name + ": 50ns, 4-way, 2X L1 area, 2X instruction issue rate",
		XLabel: "area (rbe)", YLabel: "TPI (ns)",
	}
	w := mustWorkload(name)
	base := h.runSweep(w, h.options(50, 4, core.Conventional, false))
	dual := h.runSweep(w, h.options(50, 4, core.Conventional, true))

	oneBase := sweep.Envelope(singleLevel(base))
	oneDual := sweep.Envelope(singleLevel(dual))
	bestDual := sweep.Envelope(dual)

	f.Series = append(f.Series,
		Series{Name: "1-level base system", Points: toXY(oneBase)},
		Series{Name: "1-level dual ported", Points: toXY(oneDual)},
		Series{Name: "best config (dual-ported L1)", Points: toXY(bestDual)},
	)

	// Crossover: the smallest area above which the dual-ported cell beats
	// the base cell for single-level caches (paper: 50K–400K rbe).
	cross := 0.0
	for _, p := range oneDual {
		if q, ok := sweep.BestAtArea(oneBase, p.AreaRbe); ok && p.TPINS < q.TPINS {
			cross = p.AreaRbe
			break
		}
	}
	if cross > 0 {
		f.Notes = append(f.Notes, fmt.Sprintf(
			"%s: dual-ported single-level cell wins above %.0f rbe (paper: crossover 50K–400K rbe)", name, cross))
	} else {
		f.Notes = append(f.Notes, fmt.Sprintf("%s: no dual-ported crossover found", name))
	}
	f.Notes = append(f.Notes, envelopeNotes(name, dual, oneDual, bestDual)...)

	// Compare single-level presence on the envelope with the base case
	// (paper: fewer single-level configs on the envelope when dual-ported).
	countSingle := func(env []sweep.Point) int {
		n := 0
		for _, p := range env {
			if !p.TwoLevel() {
				n++
			}
		}
		return n
	}
	f.Notes = append(f.Notes, fmt.Sprintf(
		"%s: single-level configs on envelope: base %d vs dual-ported %d (paper: fewer when dual-ported)",
		name, countSingle(sweep.Envelope(base)), countSingle(bestDual)))
	return f
}

// Figure10 reproduces Figure 10 (gcc1, dual-ported).
func (h *Harness) Figure10() Figure { return h.dualPortedFigure("fig10", "gcc1") }

// Figure11 reproduces Figure 11 (espresso, dual-ported).
func (h *Harness) Figure11() Figure { return h.dualPortedFigure("fig11", "espresso") }

// Figure12 reproduces Figure 12 (doduc, dual-ported).
func (h *Harness) Figure12() Figure { return h.dualPortedFigure("fig12", "doduc") }

// Figure13 reproduces Figure 13 (fpppp, dual-ported).
func (h *Harness) Figure13() Figure { return h.dualPortedFigure("fig13", "fpppp") }

// Figure14 reproduces Figure 14 (li, dual-ported).
func (h *Harness) Figure14() Figure { return h.dualPortedFigure("fig14", "li") }

// Figure15 reproduces Figure 15 (eqntott, dual-ported).
func (h *Harness) Figure15() Figure { return h.dualPortedFigure("fig15", "eqntott") }

// Figure16 reproduces Figure 16 (tomcatv, dual-ported).
func (h *Harness) Figure16() Figure { return h.dualPortedFigure("fig16", "tomcatv") }

// ---- Figures 17–20: 200ns off-chip ----

// longMissNotes adds the §7 comparison against the 50ns envelope.
func (h *Harness) longMissNotes(f *Figure, names []string) {
	for _, name := range names {
		w := mustWorkload(name)
		at50 := sweep.Envelope(h.runSweep(w, h.options(50, 4, core.Conventional, false)))
		at200 := sweep.Envelope(h.runSweep(w, h.options(200, 4, core.Conventional, false)))
		if len(at50) == 0 || len(at200) == 0 {
			continue
		}
		small50, small200 := at50[0].TPINS, at200[0].TPINS
		f.Notes = append(f.Notes, fmt.Sprintf(
			"%s: smallest-config TPI %.1f ns at 200ns vs %.1f ns at 50ns (%.1fx; paper: about 3x for 1KB)",
			name, small200, small50, small200/small50))
	}
}

// Figure17 reproduces Figure 17 (gcc1; 200ns off-chip).
func (h *Harness) Figure17() Figure {
	f := h.envelopeFigure("fig17", "gcc1: 200ns off-chip, L2 4-way set-associative",
		[]string{"gcc1"}, h.options(200, 4, core.Conventional, false), true)
	h.longMissNotes(&f, []string{"gcc1"})
	return f
}

// Figure18 reproduces Figure 18 (doduc and espresso; 200ns).
func (h *Harness) Figure18() Figure {
	f := h.envelopeFigure("fig18", "doduc and espresso: 200ns off-chip, L2 4-way",
		[]string{"doduc", "espresso"}, h.options(200, 4, core.Conventional, false), false)
	h.longMissNotes(&f, []string{"doduc", "espresso"})
	return f
}

// Figure19 reproduces Figure 19 (fpppp and li; 200ns).
func (h *Harness) Figure19() Figure {
	f := h.envelopeFigure("fig19", "fpppp and li: 200ns off-chip, L2 4-way",
		[]string{"fpppp", "li"}, h.options(200, 4, core.Conventional, false), false)
	h.longMissNotes(&f, []string{"fpppp", "li"})
	return f
}

// Figure20 reproduces Figure 20 (tomcatv and eqntott; 200ns).
func (h *Harness) Figure20() Figure {
	f := h.envelopeFigure("fig20", "tomcatv and eqntott: 200ns off-chip, L2 4-way",
		[]string{"tomcatv", "eqntott"}, h.options(200, 4, core.Conventional, false), false)
	h.longMissNotes(&f, []string{"tomcatv", "eqntott"})
	return f
}

// ---- Figure 21: exclusion vs inclusion mechanics ----

// Figure21 reproduces Figure 21 as a behavioural demonstration: with
// direct-mapped 4-line L1 caches and a 16-line direct-mapped L2, (a) two
// lines that conflict in the second level end up exclusive — both stay
// on-chip and alternate between levels — while (b) lines that conflict
// only in the first level remain included in the second.
func (h *Harness) Figure21() Figure {
	f := Figure{
		ID:     "fig21",
		Title:  "Exclusion vs. inclusion during swapping, direct-mapped caches",
		Header: []string{"Scenario", "Policy", "Addresses", "Steady-state hit rate", "Both lines on-chip", "L2 duplication"},
	}
	const line = 16
	mk := func(pol core.Policy) *core.System {
		return core.NewSystem(core.Config{
			L1I:    cache.Config{Size: 4 * line, LineSize: line, Assoc: 1},
			L1D:    cache.Config{Size: 4 * line, LineSize: line, Assoc: 1},
			L2:     cache.Config{Size: 16 * line, LineSize: line, Assoc: 1},
			Policy: pol,
		})
	}
	run := func(name string, pol core.Policy, addrs []uint64) {
		sys := mk(pol)
		// Warm up, then measure the steady state.
		for i := 0; i < 8; i++ {
			for _, a := range addrs {
				sys.Access(trace.Ref{Kind: trace.Data, Addr: a})
			}
		}
		before := sys.Stats()
		const rounds = 100
		for i := 0; i < rounds; i++ {
			for _, a := range addrs {
				sys.Access(trace.Ref{Kind: trace.Data, Addr: a})
			}
		}
		after := sys.Stats()
		accesses := float64(after.DataRefs - before.DataRefs)
		hits := float64(after.L1DHits-before.L1DHits) + float64(after.L2Hits-before.L2Hits)
		onChip := true
		for _, a := range addrs {
			if !sys.L1D().Contains(cache.Addr(a)) && !sys.L2().Contains(cache.Addr(a)) {
				onChip = false
			}
		}
		var tags []string
		for _, a := range addrs {
			tags = append(tags, fmt.Sprintf("0x%x", a))
		}
		f.Rows = append(f.Rows, []string{
			name, pol.String(), strings.Join(tags, ","),
			fmt.Sprintf("%.2f", hits/accesses),
			fmt.Sprintf("%v", onChip),
			fmt.Sprintf("%d lines", sys.DuplicatedLines()),
		})
	}

	// (a) A and E conflict in BOTH levels: same L2 line (16-line L2 →
	// same index mod 16), same L1 line (mod 4).
	a := uint64(13 * line)
	e := a + 16*line
	run("a: L2 conflict", core.Conventional, []uint64{a, e})
	run("a: L2 conflict", core.Exclusive, []uint64{a, e})

	// (b) A and B conflict ONLY in the first level: same L1 line (mod 4),
	// different L2 lines (mod 16).
	bAddr := a + 4*line
	run("b: L1-only conflict", core.Conventional, []uint64{a, bAddr})
	run("b: L1-only conflict", core.Exclusive, []uint64{a, bAddr})

	f.Notes = append(f.Notes,
		"scenario a: exclusive keeps both conflicting lines on-chip (swap), conventional thrashes off-chip",
		"scenario b: an L1-only conflict gains nothing from exclusion — both policies already keep both lines on-chip",
	)
	return f
}

// ---- Figures 22–26: exclusive caching ----

// Figure22 reproduces Figure 22 (gcc1; exclusive direct-mapped L2).
func (h *Harness) Figure22() Figure {
	f := h.envelopeFigure("fig22", "gcc1: 50ns off-chip, exclusive direct-mapped L2",
		[]string{"gcc1"}, h.options(50, 1, core.Exclusive, false), true)
	// §8's claim: exclusive DM L2 performs about as well as conventional
	// 4-way L2.
	w := mustWorkload("gcc1")
	exDM := h.runSweep(w, h.options(50, 1, core.Exclusive, false))
	conv4 := h.runSweep(w, h.options(50, 4, core.Conventional, false))
	adv := sweep.EnvelopeAdvantage(exDM, conv4)
	f.Notes = append(f.Notes, fmt.Sprintf(
		"gcc1: exclusive DM L2 envelope within %.1f%% of conventional 4-way L2 envelope (paper §8: about as well)",
		100*(1-adv)))
	return f
}

// exclusiveNotes compares an exclusive 4-way envelope against both
// baseline envelopes (§8: combining set-associativity and exclusion beats
// either alone).
func (h *Harness) exclusiveNotes(f *Figure, names []string) {
	for _, name := range names {
		w := mustWorkload(name)
		ex4 := h.runSweep(w, h.options(50, 4, core.Exclusive, false))
		conv4 := h.runSweep(w, h.options(50, 4, core.Conventional, false))
		adv := sweep.EnvelopeAdvantage(ex4, conv4)
		f.Notes = append(f.Notes, fmt.Sprintf(
			"%s: exclusive 4-way envelope beats conventional 4-way by %.1f%% on average (paper §8: lower than either)",
			name, 100*(adv-1)))
	}
}

// Figure23 reproduces Figure 23 (gcc1; exclusive 4-way L2).
func (h *Harness) Figure23() Figure {
	f := h.envelopeFigure("fig23", "gcc1: 50ns off-chip, exclusive 4-way L2",
		[]string{"gcc1"}, h.options(50, 4, core.Exclusive, false), true)
	h.exclusiveNotes(&f, []string{"gcc1"})
	return f
}

// Figure24 reproduces Figure 24 (doduc and espresso; exclusive 4-way).
func (h *Harness) Figure24() Figure {
	f := h.envelopeFigure("fig24", "doduc and espresso: 50ns off-chip, exclusive 4-way L2",
		[]string{"doduc", "espresso"}, h.options(50, 4, core.Exclusive, false), false)
	h.exclusiveNotes(&f, []string{"doduc", "espresso"})
	return f
}

// Figure25 reproduces Figure 25 (fpppp and li; exclusive 4-way).
func (h *Harness) Figure25() Figure {
	f := h.envelopeFigure("fig25", "fpppp and li: 50ns off-chip, exclusive 4-way L2",
		[]string{"fpppp", "li"}, h.options(50, 4, core.Exclusive, false), false)
	h.exclusiveNotes(&f, []string{"fpppp", "li"})
	return f
}

// Figure26 reproduces Figure 26 (eqntott and tomcatv; exclusive 4-way).
func (h *Harness) Figure26() Figure {
	f := h.envelopeFigure("fig26", "eqntott and tomcatv: 50ns off-chip, exclusive 4-way L2",
		[]string{"eqntott", "tomcatv"}, h.options(50, 4, core.Exclusive, false), false)
	h.exclusiveNotes(&f, []string{"eqntott", "tomcatv"})
	return f
}

// ---- Registry and rendering ----

// IDs lists every figure and table identifier in paper order, followed
// by the extension figures.
func IDs() []string {
	ids := []string{"table1", "fig1", "fig2"}
	for i := 3; i <= 26; i++ {
		ids = append(ids, fmt.Sprintf("fig%d", i))
	}
	return append(ids, ExtensionIDs()...)
}

// ByID generates the figure with the given identifier.
func (h *Harness) ByID(id string) (Figure, error) {
	gens := map[string]func() Figure{
		"table1": h.Table1,
		"fig1":   h.Figure1, "fig2": h.Figure2, "fig3": h.Figure3,
		"fig4": h.Figure4, "fig5": h.Figure5, "fig6": h.Figure6,
		"fig7": h.Figure7, "fig8": h.Figure8, "fig9": h.Figure9,
		"fig10": h.Figure10, "fig11": h.Figure11, "fig12": h.Figure12,
		"fig13": h.Figure13, "fig14": h.Figure14, "fig15": h.Figure15,
		"fig16": h.Figure16, "fig17": h.Figure17, "fig18": h.Figure18,
		"fig19": h.Figure19, "fig20": h.Figure20, "fig21": h.Figure21,
		"fig22": h.Figure22, "fig23": h.Figure23, "fig24": h.Figure24,
		"fig25": h.Figure25, "fig26": h.Figure26,
		"extrepl": h.ExtReplacement, "extassoc": h.ExtAssociativity,
		"extline": h.ExtLineSize, "extpolicy": h.ExtPolicyTraffic,
		"extmulti": h.ExtMulticycle, "extmr": h.ExtMissRates,
		"exttlb": h.ExtTranslation, "extseeds": h.ExtSeeds, "extbank": h.ExtBanked, "extboard": h.ExtBoard,
		"extwrite": h.ExtWritePolicy, "extstream": h.ExtStreamBuffer,
	}
	gen, ok := gens[id]
	if !ok {
		return Figure{}, fmt.Errorf("figures: unknown figure %q (have %v)", id, IDs())
	}
	f := gen()
	// A sweep failure (cancellation, bad configuration) leaves the figure
	// partial; surface it alongside whatever data was generated.
	return f, h.Err()
}

// Render writes a figure as aligned text.
func Render(w io.Writer, f Figure) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", f.ID, f.Title); err != nil {
		return err
	}
	if len(f.Rows) > 0 {
		widths := make([]int, len(f.Header))
		for i, hd := range f.Header {
			widths[i] = len(hd)
		}
		for _, row := range f.Rows {
			for i, cell := range row {
				if i < len(widths) && len(cell) > widths[i] {
					widths[i] = len(cell)
				}
			}
		}
		writeRow := func(cells []string) error {
			var sb strings.Builder
			for i, cell := range cells {
				fmt.Fprintf(&sb, "%-*s  ", widths[i], cell)
			}
			_, err := fmt.Fprintln(w, strings.TrimRight(sb.String(), " "))
			return err
		}
		if err := writeRow(f.Header); err != nil {
			return err
		}
		for _, row := range f.Rows {
			if err := writeRow(row); err != nil {
				return err
			}
		}
	}
	for _, s := range f.Series {
		if _, err := fmt.Fprintf(w, "-- %s (%s vs %s)\n", s.Name, f.YLabel, f.XLabel); err != nil {
			return err
		}
		pts := make([]XY, len(s.Points))
		copy(pts, s.Points)
		sort.Slice(pts, func(i, j int) bool { return pts[i].X < pts[j].X })
		for _, p := range pts {
			if _, err := fmt.Fprintf(w, "   %-8s %12.0f %10.3f\n", p.Label, p.X, p.Y); err != nil {
				return err
			}
		}
	}
	for _, n := range f.Notes {
		if _, err := fmt.Fprintf(w, " note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// cacheArea prices one cache with the area model.
func cacheArea(p timing.Params, org timing.Organization) float64 {
	return area.Cache(p, org)
}
