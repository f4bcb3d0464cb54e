// Package twolevel reproduces the system from Jouppi and Wilton,
// "Tradeoffs in Two-Level On-Chip Caching" (DEC WRL Research Report 93/3,
// ISCA 1994): a design-space explorer for on-chip cache hierarchies that
// combines trace-driven miss-rate simulation, an analytical SRAM
// access/cycle-time model, and a register-bit-equivalent (rbe) chip-area
// model into time-per-instruction (TPI) versus area tradeoff curves —
// including the paper's two-level exclusive caching policy.
//
// The package is a facade over the implementation packages:
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
// See the examples directory for complete programs.
package twolevel

import (
	"context"
	"io"
	"net/http"

	"twolevel/internal/analyze"
	"twolevel/internal/area"
	"twolevel/internal/cache"
	"twolevel/internal/chaos"
	"twolevel/internal/core"
	"twolevel/internal/figures"
	"twolevel/internal/loadgen"
	"twolevel/internal/model"
	"twolevel/internal/obs"
	"twolevel/internal/obs/span"
	"twolevel/internal/perf"
	"twolevel/internal/service"
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

// CacheStats counts accesses to one cache.
type CacheStats = cache.Stats

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

// WriteMode selects store handling: the paper's write-back/write-allocate
// model or the write-through/no-allocate ablation.
type WriteMode = core.WriteMode

// Write modes.
const (
	WriteBackAllocate      = core.WriteBackAllocate
	WriteThroughNoAllocate = core.WriteThroughNoAllocate
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

// BoardSystem wraps an on-chip hierarchy with an explicit simulated
// board-level cache (the thing the paper's flat 50ns stands for).
type BoardSystem = core.BoardSystem

// BoardStats splits off-chip fetches into board-cache hits and memory
// accesses.
type BoardStats = core.BoardStats

// NewBoardSystem builds an on-chip hierarchy backed by a board cache.
func NewBoardSystem(onChip Hierarchy, board CacheConfig) (*BoardSystem, error) {
	return core.NewBoardSystem(onChip, board)
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

// DefaultRefs is the default trace length for sweeps and figures.
const DefaultRefs = spec.DefaultRefs

// ---- Timing and area models ----

// Tech carries technology-level knobs for the timing model.
type Tech = timing.Tech

// Technologies: the paper's 0.5µm process and the unscaled 0.8µm base.
var (
	Paper05um = timing.Paper05um
	Base08um  = timing.Base08um
)

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

// BoardMachine is the TPI model with an explicit board-level cache:
// OffChipNS serves board hits, MemoryNS serves board misses.
type BoardMachine = perf.BoardMachine

// Translation models the §1 fourth advantage: serialized TLB lookups in
// front of L1 caches indexed past the page size.
type Translation = perf.Translation

// PaperTranslation is the study-era default (4KB pages, 1-cycle TLB).
var PaperTranslation = perf.PaperTranslation

// BankedIssueRate and BankedAreaFactor model the §6 banked-L1
// alternative to dual porting.
func BankedIssueRate(banks int) float64  { return perf.BankedIssueRate(banks) }
func BankedAreaFactor(banks int) float64 { return perf.BankedAreaFactor(banks) }

// ---- Design-space sweeps ----

// SweepOptions fixes the system parameters of one design-space sweep.
type SweepOptions = sweep.Options

// Point is one evaluated configuration: hierarchy, area, and TPI.
type Point = sweep.Point

// Sweep evaluates the full configuration space for one workload.
func Sweep(w Workload, opt SweepOptions) []Point { return sweep.Run(w, opt) }

// SweepContext is the resilient form of Sweep: it honors ctx
// cancellation and deadlines, isolates per-configuration panics as
// *SweepConfigError values, and resumes from the result store set as
// opt.Store (a *DiskResultStore makes an interrupted sweep resumable).
// The returned points are always usable (possibly partial) even when err
// is non-nil.
func SweepContext(ctx context.Context, w Workload, opt SweepOptions) ([]Point, error) {
	return sweep.RunContext(ctx, w, opt)
}

// SweepConfigError reports the failure of one configuration inside a
// sweep; errors.As extracts it from SweepContext's joined error.
type SweepConfigError = sweep.ConfigError

// SweepProgressEvent is one per-configuration progress callback payload.
type SweepProgressEvent = sweep.ProgressEvent

// ---- Observability ----

// MetricsRegistry interns named counters, gauges, and histograms; attach
// one via SweepOptions.Metrics (or Cache.Instrument / System.Instrument)
// to observe a run live. A nil registry is a valid no-op.
type MetricsRegistry = obs.Registry

// MetricsSnapshot is an atomic point-in-time copy of a registry.
type MetricsSnapshot = obs.Snapshot

// EventLog journals structured run events as JSONL; attach one via
// SweepOptions.Events. A nil log is a valid no-op.
type EventLog = obs.EventLog

// RunEvent is one line of an event journal.
type RunEvent = obs.Event

// ObsServer is a running observability HTTP server (/metrics, /progress,
// /debug/pprof).
type ObsServer = obs.Server

// NewMetricsRegistry builds an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewEventLog starts a JSONL event journal on w.
func NewEventLog(w io.Writer) *EventLog { return obs.NewEventLog(w) }

// OpenEventLogFile opens (or creates, or appends to) an event journal.
func OpenEventLogFile(path string) (*EventLog, error) { return obs.OpenEventLogFile(path) }

// ReadRunEvents parses a JSONL event journal back into events.
func ReadRunEvents(r io.Reader) ([]RunEvent, error) { return obs.ReadEvents(r) }

// ServeObservability starts the observability HTTP server on addr; pass
// SweepProgressSummary(reg) as summary to serve /progress.
func ServeObservability(addr string, reg *MetricsRegistry, summary func() any) (*ObsServer, error) {
	return obs.Serve(addr, reg, summary)
}

// SweepProgressSummary computes live sweep progress and ETA from the
// registry's sweep metrics.
func SweepProgressSummary(reg *MetricsRegistry) func() any { return sweep.ProgressSummary(reg) }

// WritePrometheusMetrics renders the registry in the Prometheus text
// exposition format (text/plain; version=0.0.4) — the representation
// the observability server's /metrics serves under content negotiation.
func WritePrometheusMetrics(w io.Writer, reg *MetricsRegistry) error {
	return obs.WritePrometheus(w, reg)
}

// LatencySLO is one latency objective: a histogram quantile that must
// stay at or under a threshold.
type LatencySLO = obs.SLO

// SLOVerdict is one evaluated latency objective, with its measured
// quantile, burn ratio, and pass/fail.
type SLOVerdict = obs.SLOVerdict

// ParseLatencySLOs parses a comma-separated objective list such as
// "p99:sweep_config_seconds:500ms,p50:service_job_seconds:2s".
func ParseLatencySLOs(s string) ([]LatencySLO, error) { return obs.ParseSLOs(s) }

// EvalLatencySLOs evaluates objectives against a metrics snapshot.
func EvalLatencySLOs(slos []LatencySLO, snap MetricsSnapshot) []SLOVerdict {
	return obs.EvalSLOs(slos, snap, nil)
}

// EnableRuntimeMetrics attaches Go runtime telemetry to a registry:
// goroutine count, heap gauges, GC cycle counter, and the GC pause
// histogram, sampled lazily at each Snapshot. The /metrics handlers add
// twolevel_build_info alongside them.
func EnableRuntimeMetrics(reg *MetricsRegistry) { obs.EnableRuntimeMetrics(reg) }

// SpanTracer collects a span tree of run execution (run → sweep →
// config → attempt → simulate; job → evaluate → store-{hit,miss} in the
// job service) and exports it as Chrome trace_event JSON loadable in
// Perfetto. Attach one via SweepOptions.Trace or JobServiceConfig.Trace.
// A nil tracer is a valid no-op: Start returns a nil Span whose methods
// all no-op.
type SpanTracer = span.Tracer

// Span is one timed node of a span tree.
type Span = span.Span

// SpanAttr is one key/value annotation on a span.
type SpanAttr = span.Attr

// SpanData is the immutable snapshot of a completed span.
type SpanData = span.Data

// NewSpanTracer builds an empty span tracer.
func NewSpanTracer() *SpanTracer { return span.NewTracer() }

// ---- Cache explainability ----

// CacheAnalyzer shadows a System with per-level infinite-cache +
// fully-associative-LRU simulations, classifying every demand miss as
// compulsory, capacity, or conflict (the 3C model) and accumulating
// reuse-distance histograms. The shadow observes the demand stream only
// and never perturbs the primary simulation's statistics.
type CacheAnalyzer = analyze.Analyzer

// ExplainReport is the twolevel-explain/1 document a CacheAnalyzer
// produces: per-level 3C splits and reuse-distance histograms.
type ExplainReport = analyze.Report

// ExplainLevelReport is one level's half of an ExplainReport.
type ExplainLevelReport = analyze.LevelReport

// AttachAnalyzer instruments sys with a 3C/reuse-distance shadow
// analyzer. Call before running the stream; reg may be nil (the analyzer
// then uses a private registry for its histograms).
func AttachAnalyzer(sys *System, reg *MetricsRegistry) *CacheAnalyzer {
	return analyze.Attach(sys, reg)
}

// SweepConfigs enumerates the configurations a sweep would evaluate.
func SweepConfigs(opt SweepOptions) []Hierarchy { return sweep.Configs(opt) }

// PointKey identifies one evaluated (workload, configuration, options)
// point; it keys the result stores of SweepContext and the job service.
func PointKey(workload string, cfg Hierarchy, opt SweepOptions) string {
	return sweep.Key(workload, cfg, opt)
}

// SweepEvaluator performs repeated hardened single-configuration
// evaluations of one workload (the per-configuration semantics of
// SweepContext without the enumeration).
type SweepEvaluator = sweep.Evaluator

// NewSweepEvaluator prepares an evaluator for one workload.
func NewSweepEvaluator(w Workload, opt SweepOptions) *SweepEvaluator {
	return sweep.NewEvaluator(w, opt)
}

// ---- Analytical fast tier ----

// ReuseProfile is a workload's serializable twolevel-rdh/1
// reuse-distance profile: exact LRU stack-distance and reuse-time
// histograms for the instruction, data, and unified streams, collected
// in one pass and sufficient to predict miss ratios for any cache
// geometry without re-touching the trace.
type ReuseProfile = model.Profile

// CollectReuseProfile runs the one-pass profile collection for a
// workload (only the result-determining options matter: Refs,
// LineSize).
func CollectReuseProfile(ctx context.Context, w Workload, opt SweepOptions) (*ReuseProfile, error) {
	return model.Collect(ctx, w, opt)
}

// LoadReuseProfile reads and validates a twolevel-rdh/1 document.
func LoadReuseProfile(r io.Reader) (*ReuseProfile, error) { return model.LoadProfile(r) }

// ReuseProfileCache memoizes collected profiles by workload/options
// fingerprint; share one across FastEvaluators to profile each
// workload at most once.
type ReuseProfileCache = model.Cache

// NewReuseProfileCache builds an empty profile cache.
func NewReuseProfileCache() *ReuseProfileCache { return model.NewCache() }

// FastEvaluator is the analytical fast tier behind the same contract
// as SweepEvaluator: it predicts points from a ReuseProfile instead of
// simulating, trading ~1-2% TPI error for an order-of-magnitude
// speedup. Predicted points carry Evaluator "fast" and persist with
// "approx": true.
type FastEvaluator = model.Evaluator

// NewFastEvaluator prepares a fast evaluator for one workload.
func NewFastEvaluator(w Workload, opt SweepOptions) *FastEvaluator {
	return model.NewEvaluator(w, opt)
}

// FastSweepContext is the analytical mirror of SweepContext: one
// profile pass, then one O(buckets) prediction per configuration.
func FastSweepContext(ctx context.Context, w Workload, opt SweepOptions) ([]Point, error) {
	return model.RunContext(ctx, w, opt)
}

// ModelAccuracyReport is the twolevel-model-accuracy/1 document
// comparing fast predictions against exact simulation (cmd/sweep
// -accuracy).
type ModelAccuracyReport = model.Report

// ModelWorkloadAccuracy is one workload's fast-vs-exact comparison
// inside a ModelAccuracyReport.
type ModelWorkloadAccuracy = model.WorkloadAccuracy

// CompareModelAccuracy evaluates one workload's fast points against
// exact simulation of the same sweep (errHist may be nil).
func CompareModelAccuracy(workload string, exact, fast []Point, errHist *obs.Histogram) (ModelWorkloadAccuracy, error) {
	return model.Compare(workload, exact, fast, errHist)
}

// NewModelAccuracyReport assembles per-workload comparisons into the
// cross-workload document with its aggregate accuracy gates.
func NewModelAccuracyReport(workloads []ModelWorkloadAccuracy) ModelAccuracyReport {
	return model.NewReport(workloads)
}

// ---- Job service ----

// JobService is the concurrent sweep/evaluation job manager: jobs fan
// out across a shared worker pool and completed points are memoized in a
// result store keyed by PointKey, so repeated and overlapping jobs reuse
// prior work. Serve its HTTP API with NewJobServiceHandler (or run
// cmd/served).
type JobService = service.Manager

// JobServiceConfig parameterizes a JobService.
type JobServiceConfig = service.Config

// JobRequest names the work of one job: a design space × a workload set.
type JobRequest = service.JobRequest

// Job is one submitted design-space job.
type Job = service.Job

// JobStatus is a point-in-time snapshot of a job.
type JobStatus = service.Status

// ResultStore memoizes completed evaluation points by PointKey.
// MemResultStore is the in-memory implementation; DiskResultStore the
// crash-safe durable one.
type ResultStore = service.Store

// MemResultStore is the in-memory result store.
type MemResultStore = service.MemStore

// DiskResultStore is the durable, crash-safe result store.
type DiskResultStore = service.DiskStore

// DiskResultStoreOptions tunes a DiskResultStore.
type DiskResultStoreOptions = service.DiskStoreOptions

// NewJobService builds a job service and starts its worker pool.
func NewJobService(cfg JobServiceConfig) *JobService { return service.New(cfg) }

// NewResultStore builds an in-memory result store holding at most cap
// points (cap <= 0 means unbounded).
func NewResultStore(cap int) *MemResultStore { return service.NewStore(cap) }

// OpenResultStore opens (creating if needed) a durable result store in
// dir, replaying its journal into memory.
func OpenResultStore(dir string, opt DiskResultStoreOptions) (*DiskResultStore, error) {
	return service.OpenDiskStore(dir, opt)
}

// NewJobServiceHandler builds the /v1 HTTP JSON API over a job service.
func NewJobServiceHandler(m *JobService) http.Handler { return service.NewHandler(m) }

// HotResultStore is a bounded in-memory LRU read-through tier over
// another result store — the paper's two-level hierarchy applied to the
// serving plane. It implements ResultStore, serves byte-identical
// points, and reports store_hot_* hit/miss/eviction metrics.
type HotResultStore = service.HotStore

// NewHotResultStore wraps inner with a hot tier of at most capacity
// points (minimum 1), instrumented on reg (nil-safe).
func NewHotResultStore(inner ResultStore, capacity int, reg *MetricsRegistry) *HotResultStore {
	return service.NewHotStore(inner, capacity, reg)
}

// ErrServiceOverloaded reports a job refused by admission control
// (JobServiceConfig.MaxActiveJobs / MaxQueue); back off and resubmit.
var ErrServiceOverloaded = service.ErrOverloaded

// ---- Serving observatory ----

// LoadGenConfig parameterizes a deterministic open-loop load-generation
// run against a live job service (internal/loadgen): arrival rate,
// duration, seed, request-class mix, and latency SLOs.
type LoadGenConfig = loadgen.Config

// LoadGenReport is the twolevel-loadgen/1 result document: per-class
// latency quantiles, first-result timings from the SSE progress
// streams, SLO verdicts, and the server's own metrics snapshot.
type LoadGenReport = loadgen.Report

// PlanLoad expands a config into its deterministic arrival schedule
// (equal configs yield identical plans).
func PlanLoad(cfg LoadGenConfig) ([]loadgen.Request, error) { return loadgen.Plan(cfg) }

// RunLoad replays the planned mix against cfg.BaseURL and reports. SLO
// failures surface in Report.Pass, not as an error.
func RunLoad(ctx context.Context, cfg LoadGenConfig) (*LoadGenReport, error) {
	return loadgen.Run(ctx, cfg)
}

// ChaosInjector is the deterministic fault injector of internal/chaos:
// seed-driven panics, delays, errors, and short/corrupted I/O fired at
// named sites (SweepOptions.Chaos, JobServiceConfig.Chaos,
// DiskResultStoreOptions.Chaos). A nil injector is inert.
type ChaosInjector = chaos.Injector

// ChaosRule describes one injected fault bound to a site.
type ChaosRule = chaos.Rule

// NewChaosInjector builds a fault injector whose decisions all derive
// from seed.
func NewChaosInjector(seed int64) *ChaosInjector { return chaos.New(seed) }

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
