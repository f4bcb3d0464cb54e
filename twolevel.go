// Package twolevel reproduces the system from Jouppi and Wilton,
// "Tradeoffs in Two-Level On-Chip Caching" (DEC WRL Research Report 93/3,
// ISCA 1994): a design-space explorer for on-chip cache hierarchies that
// combines trace-driven miss-rate simulation, an analytical SRAM
// access/cycle-time model, and a register-bit-equivalent (rbe) chip-area
// model into time-per-instruction (TPI) versus area tradeoff curves —
// including the paper's two-level exclusive caching policy.
//
// The package is the reproduction API only, a facade over the
// implementation packages:
//
//   - hierarchy simulation (internal/core, internal/cache)
//   - synthetic SPEC89-like workloads (internal/trace, internal/spec)
//   - timing and area models (internal/timing, internal/area)
//   - the TPI model and design-space sweeps (internal/perf,
//     internal/sweep)
//   - paper figure regeneration (internal/figures)
//
// Quick start:
//
//	sys := twolevel.NewSystem(twolevel.Hierarchy{
//		L1I:    twolevel.CacheConfig{Size: 8 << 10, LineSize: 16, Assoc: 1},
//		L1D:    twolevel.CacheConfig{Size: 8 << 10, LineSize: 16, Assoc: 1},
//		L2:     twolevel.CacheConfig{Size: 64 << 10, LineSize: 16, Assoc: 4},
//		Policy: twolevel.Exclusive,
//	})
//	w, _ := twolevel.WorkloadByName("gcc1")
//	stats := sys.Run(w.Stream(1_000_000))
//
// See the examples directory for complete programs. The job service,
// result stores, load generator and observability stack are reached
// through the commands under cmd/, not through this package.
package twolevel

import (
	"io"

	"twolevel/internal/area"
	"twolevel/internal/cache"
	"twolevel/internal/core"
	"twolevel/internal/figures"
	"twolevel/internal/perf"
	"twolevel/internal/spec"
	"twolevel/internal/sweep"
	"twolevel/internal/timing"
	"twolevel/internal/trace"
)

// ---- Cache substrate ----

// CacheConfig describes a single cache array (size, line size,
// associativity, replacement policy).
type CacheConfig = cache.Config

// Cache is a tag-only cache simulator.
type Cache = cache.Cache

// ReplacementPolicy selects the victim-choice policy of a
// set-associative cache.
type ReplacementPolicy = cache.ReplacementPolicy

// Replacement policies. The paper uses pseudo-random replacement for its
// set-associative second-level caches; LRU and FIFO are ablations.
const (
	Random = cache.Random
	LRU    = cache.LRU
	FIFO   = cache.FIFO
)

// NewCache builds a single cache simulator.
func NewCache(cfg CacheConfig) *Cache { return cache.New(cfg) }

// FormatSize renders a byte count as "8KB"-style text.
func FormatSize(b int64) string { return cache.FormatSize(b) }

// ---- Hierarchy (the paper's contribution) ----

// Hierarchy describes an on-chip cache hierarchy: split L1 caches and an
// optional mixed L2.
type Hierarchy = core.Config

// System simulates one hierarchy over a reference stream.
type System = core.System

// Stats aggregates hierarchy-level hit/miss counts.
type Stats = core.Stats

// Policy is the two-level replacement discipline.
type Policy = core.Policy

// Two-level disciplines: the paper's conventional baseline, its §8
// exclusive policy, and strict inclusion as an ablation.
const (
	Conventional = core.Conventional
	Exclusive    = core.Exclusive
	Inclusive    = core.Inclusive
)

// NewSystem builds a hierarchy simulator.
func NewSystem(cfg Hierarchy) *System { return core.NewSystem(cfg) }

// NewVictimCacheSystem builds the y < x degenerate case as a shared
// fully-associative victim buffer behind split direct-mapped L1 caches
// (Jouppi 1990, the paper's reference [4]).
func NewVictimCacheSystem(l1Size int64, victimLines, lineSize int) (*System, error) {
	return core.NewVictimCacheSystem(l1Size, victimLines, lineSize)
}

// StreamBufferSystem pairs a hierarchy with sequential prefetch buffers
// (Jouppi 1990, the paper's reference [4]).
type StreamBufferSystem = core.StreamBufferSystem

// NewStreamBufferSystem builds a hierarchy with per-L1 stream buffers of
// the given depth; dataWays sets the multi-way data-side buffer count
// (0 disables data prefetching; Jouppi used 4).
func NewStreamBufferSystem(cfg Hierarchy, depth, dataWays int) (*StreamBufferSystem, error) {
	return core.NewStreamBufferSystem(cfg, depth, dataWays)
}

// ---- References, streams, and workloads ----

// Ref is one memory reference; Kind distinguishes instruction fetches
// from data references.
type (
	Ref  = trace.Ref
	Kind = trace.Kind
)

// Reference kinds. Write behaves exactly like Data for hit/miss purposes
// (the paper's §2.2 writes-as-reads model) but dirties lines so the
// write-back traffic extension can track them.
const (
	Instr = trace.Instr
	Data  = trace.Data
	Write = trace.Write
)

// Stream produces references one at a time.
type Stream = trace.Stream

// GenParams parameterizes a synthetic workload generator.
type GenParams = trace.GenParams

// Generator is a deterministic synthetic reference generator.
type Generator = trace.Generator

// NewGenerator builds an endless synthetic stream from params.
func NewGenerator(p GenParams) *Generator { return trace.NewGenerator(p) }

// Generate returns a finite synthetic stream of n references.
func Generate(p GenParams, n uint64) Stream { return trace.Generate(p, n) }

// Limit caps a stream at n references.
func Limit(s Stream, n uint64) Stream { return trace.NewLimit(s, n) }

// Profile summarizes a reference stream (mix, footprints, stack-distance
// histogram).
type Profile = trace.Profile

// Analyze drains a stream and computes its Profile.
func Analyze(s Stream) Profile { return trace.Analyze(s) }

// Workload couples a SPEC89 benchmark's published reference counts with
// its calibrated synthetic generator.
type Workload = spec.Workload

// Workloads returns the paper's seven workloads in Table-1 order.
func Workloads() []Workload { return spec.All() }

// WorkloadNames returns the workload names in Table-1 order.
func WorkloadNames() []string { return spec.Names() }

// WorkloadByName looks up one of the seven workloads.
func WorkloadByName(name string) (Workload, error) { return spec.ByName(name) }

// ---- Timing and area models ----

// Tech carries technology-level knobs for the timing model.
type Tech = timing.Tech

// Paper05um is the paper's 0.5µm process.
var Paper05um = timing.Paper05um

// TimingParams describes a cache array for the timing/area models.
type TimingParams = timing.Params

// TimingResult is the best organization's access and cycle times.
type TimingResult = timing.Result

// Organization is the array segmentation chosen by the timing search.
type Organization = timing.Organization

// OptimalTiming searches array organizations for the minimum cycle time.
func OptimalTiming(t Tech, p TimingParams) TimingResult { return timing.Optimal(t, p) }

// CacheAreaRbe prices a cache organization in register-bit equivalents.
func CacheAreaRbe(p TimingParams, org Organization) float64 { return area.Cache(p, org) }

// CacheAreaOptimal prices a cache laid out by the timing search.
func CacheAreaOptimal(t Tech, p TimingParams) float64 { return area.CacheOptimal(t, p) }

// ---- TPI model ----

// Machine carries the timing context of one configuration for the
// paper's §2.5 TPI model.
type Machine = perf.Machine

// MulticycleMachine is the §10 future-work TPI model: fixed datapath
// cycle, pipelined multicycle L1, and non-blocking-load overlap.
type MulticycleMachine = perf.MulticycleMachine

// ---- Design-space sweeps ----

// SweepOptions fixes the system parameters of one design-space sweep.
type SweepOptions = sweep.Options

// Point is one evaluated configuration: hierarchy, area, and TPI.
type Point = sweep.Point

// Sweep evaluates the full configuration space for one workload.
func Sweep(w Workload, opt SweepOptions) []Point { return sweep.Run(w, opt) }

// SweepConfigs enumerates the configurations a sweep would evaluate.
func SweepConfigs(opt SweepOptions) []Hierarchy { return sweep.Configs(opt) }

// EvaluatePoint simulates and prices a single configuration.
func EvaluatePoint(w Workload, cfg Hierarchy, opt SweepOptions) Point {
	return sweep.Evaluate(w, cfg, opt)
}

// Envelope extracts the best-performance envelope (Pareto staircase).
func Envelope(points []Point) []Point { return sweep.Envelope(points) }

// BestAtArea returns the fastest point within an area budget.
func BestAtArea(points []Point, budget float64) (Point, bool) {
	return sweep.BestAtArea(points, budget)
}

// ---- Paper figures ----

// Figure is the regenerated data for one paper figure or table.
type Figure = figures.Figure

// FigureHarness generates paper figures, memoizing shared sweeps.
type FigureHarness = figures.Harness

// FigureConfig adjusts the figure harness.
type FigureConfig = figures.Config

// NewFigureHarness builds a figure harness.
func NewFigureHarness(cfg FigureConfig) *FigureHarness { return figures.NewHarness(cfg) }

// FigureIDs lists every figure and table identifier in paper order.
func FigureIDs() []string { return figures.IDs() }

// RenderFigure writes a figure as aligned text.
func RenderFigure(w io.Writer, f Figure) error { return figures.Render(w, f) }
