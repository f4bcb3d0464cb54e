package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"twolevel/internal/cache"
	"twolevel/internal/core"
)

// persistedPoint is the stable JSON shape of a Point. Cache geometry is
// flattened so saved sweeps remain readable and diffable.
type persistedPoint struct {
	Label     string     `json:"label"`
	Workload  string     `json:"workload,omitempty"`
	Evaluator string     `json:"evaluator"`
	Approx    bool       `json:"approx,omitempty"`
	L1KB      int64      `json:"l1_kb"`
	L2KB      int64      `json:"l2_kb"`
	L2Assoc   int        `json:"l2_assoc,omitempty"`
	Policy    string     `json:"policy,omitempty"`
	AreaRbe   float64    `json:"area_rbe"`
	TPINS     float64    `json:"tpi_ns"`
	L1Cycle   float64    `json:"l1_cycle_ns"`
	L2Cycle   float64    `json:"l2_cycle_ns,omitempty"`
	OffChipNS float64    `json:"offchip_ns"`
	Issue     int        `json:"issue_rate"`
	Stats     core.Stats `json:"stats"`
}

// persistedSweep is the file-level JSON document.
type persistedSweep struct {
	Format string           `json:"format"`
	Points []persistedPoint `json:"points"`
}

// persistFormat identifies the JSON schema version. The optional
// per-point "workload" field was added compatibly within version 1:
// documents written before it load with empty workloads. The
// "evaluator" field ("exact" | "fast", plus "approx": true on fast
// points) was likewise added compatibly: documents written before it
// load as exact, which is what they were.
const persistFormat = "twolevel-sweep/1"

// pointToPersisted flattens a Point into its stable JSON shape.
func pointToPersisted(p Point) persistedPoint {
	ev := p.Evaluator
	if ev == "" {
		ev = EvaluatorExact
	}
	pp := persistedPoint{
		Label:     p.Label,
		Workload:  p.Workload,
		Evaluator: ev,
		Approx:    ev == EvaluatorFast,
		L1KB:      p.Config.L1I.Size >> 10,
		AreaRbe:   p.AreaRbe,
		TPINS:     p.TPINS,
		L1Cycle:   p.Machine.L1CycleNS,
		L2Cycle:   p.Machine.L2CycleNS,
		OffChipNS: p.Machine.OffChipNS,
		Issue:     p.Machine.IssueRate,
		Stats:     p.Stats,
	}
	if p.Config.TwoLevel() {
		pp.L2KB = p.Config.L2.Size >> 10
		pp.L2Assoc = p.Config.L2.Assoc
		pp.Policy = p.Config.Policy.String()
	}
	return pp
}

// badMetric reports a value that cannot have come from a real evaluation:
// NaN, ±Inf, or negative.
func badMetric(v float64) bool {
	return math.IsNaN(v) || math.IsInf(v, 0) || v < 0
}

// pointFromPersisted validates a persisted point and rebuilds the Point.
// Full cache configs are reconstructed from the flattened geometry with
// the study's 16-byte lines. A point is accepted only if an evaluation
// could have produced it: its rebuilt core.Config and perf.Machine must
// validate, as PriceConfig requires of every point it prices.
func pointFromPersisted(pp persistedPoint) (Point, error) {
	const maxKB = math.MaxInt64 >> 10 // larger sizes overflow in bytes
	switch {
	case pp.L1KB <= 0 || pp.L1KB > maxKB:
		return Point{}, fmt.Errorf("bad L1 size %d", pp.L1KB)
	case badMetric(pp.AreaRbe):
		return Point{}, fmt.Errorf("bad area_rbe %v", pp.AreaRbe)
	case badMetric(pp.TPINS):
		return Point{}, fmt.Errorf("bad tpi_ns %v", pp.TPINS)
	case badMetric(pp.L1Cycle) || badMetric(pp.L2Cycle) || badMetric(pp.OffChipNS):
		return Point{}, fmt.Errorf("bad cycle/service time (%v, %v, %v)", pp.L1Cycle, pp.L2Cycle, pp.OffChipNS)
	case pp.L2KB < 0 || pp.L2KB > maxKB:
		return Point{}, fmt.Errorf("bad L2 size %d", pp.L2KB)
	}
	ev := pp.Evaluator
	switch ev {
	case "", EvaluatorExact:
		ev = EvaluatorExact
	case EvaluatorFast:
	default:
		return Point{}, fmt.Errorf("bad evaluator %q", pp.Evaluator)
	}
	p := Point{
		Label:     pp.Label,
		Workload:  pp.Workload,
		Evaluator: ev,
		AreaRbe:   pp.AreaRbe,
		TPINS:     pp.TPINS,
		Stats:     pp.Stats,
	}
	p.Machine.L1CycleNS = pp.L1Cycle
	p.Machine.L2CycleNS = pp.L2Cycle
	p.Machine.OffChipNS = pp.OffChipNS
	p.Machine.IssueRate = pp.Issue
	p.Config.L1I = cache.Config{Size: pp.L1KB << 10, LineSize: 16, Assoc: 1}
	p.Config.L1D = cache.Config{Size: pp.L1KB << 10, LineSize: 16, Assoc: 1}
	if pp.L2KB > 0 {
		p.Config.L2 = cache.Config{Size: pp.L2KB << 10, LineSize: 16, Assoc: pp.L2Assoc}
		switch pp.Policy {
		case "exclusive":
			p.Config.Policy = core.Exclusive
		case "inclusive":
			p.Config.Policy = core.Inclusive
		default:
			p.Config.Policy = core.Conventional
		}
	}
	if err := p.Config.Validate(); err != nil {
		return Point{}, fmt.Errorf("bad configuration: %w", err)
	}
	if err := p.Machine.Validate(); err != nil {
		return Point{}, fmt.Errorf("bad machine: %w", err)
	}
	return p, nil
}

// MarshalPointJSON renders one point in the stable persisted shape used
// inside twolevel-sweep/1 documents. The durable result store
// (internal/service) frames these bytes with a per-record checksum.
func MarshalPointJSON(p Point) ([]byte, error) {
	return json.Marshal(pointToPersisted(p))
}

// UnmarshalPointJSON parses one persisted point, applying the same
// validation LoadJSON applies (no NaN/Inf/negative metrics, a valid
// configuration and machine).
func UnmarshalPointJSON(b []byte) (Point, error) {
	var pp persistedPoint
	if err := json.Unmarshal(b, &pp); err != nil {
		return Point{}, fmt.Errorf("sweep: decoding point: %w", err)
	}
	return pointFromPersisted(pp)
}

// SaveJSON writes points as a versioned JSON document. Points from
// different workloads may share a document; each carries its workload
// name.
func SaveJSON(w io.Writer, points []Point) error {
	doc := persistedSweep{Format: persistFormat}
	for _, p := range points {
		doc.Points = append(doc.Points, pointToPersisted(p))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// LoadJSON reads a document written by SaveJSON. The returned points
// carry enough to re-plot, re-rank, and re-compare envelopes (labels,
// workloads, areas, TPIs, machines, stats). Corrupted input — truncated
// JSON, an unknown format string, NaN/Inf/negative metrics, or a cache
// geometry or machine no evaluation could have used — returns a
// descriptive error rather than garbage points.
func LoadJSON(r io.Reader) ([]Point, error) {
	var doc persistedSweep
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("sweep: decoding: %w", err)
	}
	if doc.Format != persistFormat {
		return nil, fmt.Errorf("sweep: unknown format %q (want %q)", doc.Format, persistFormat)
	}
	var points []Point
	for i, pp := range doc.Points {
		p, err := pointFromPersisted(pp)
		if err != nil {
			return nil, fmt.Errorf("sweep: point %d: %w", i, err)
		}
		points = append(points, p)
	}
	return points, nil
}
