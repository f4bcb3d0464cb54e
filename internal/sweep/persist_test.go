package sweep

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"twolevel/internal/core"
	"twolevel/internal/perf"
	"twolevel/internal/spec"
)

func TestSaveLoadJSONRoundTrip(t *testing.T) {
	w, err := spec.ByName("espresso")
	if err != nil {
		t.Fatal(err)
	}
	orig := Run(w, Options{Refs: 20_000, L1Sizes: []int64{2 << 10, 8 << 10}, Policy: core.Exclusive})

	var buf bytes.Buffer
	if err := SaveJSON(&buf, orig); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(orig) {
		t.Fatalf("loaded %d points, want %d", len(loaded), len(orig))
	}
	for i := range orig {
		o, l := orig[i], loaded[i]
		if o.Label != l.Label || o.AreaRbe != l.AreaRbe || o.TPINS != l.TPINS {
			t.Errorf("point %d: %v vs %v", i, o, l)
		}
		if o.Stats != l.Stats {
			t.Errorf("point %d stats differ:\n%+v\n%+v", i, o.Stats, l.Stats)
		}
		if o.Machine != l.Machine {
			t.Errorf("point %d machine differs: %+v vs %+v", i, o.Machine, l.Machine)
		}
		if o.Config.L1I.Size != l.Config.L1I.Size ||
			o.Config.L2.Size != l.Config.L2.Size ||
			o.Config.L2.Assoc != l.Config.L2.Assoc {
			t.Errorf("point %d geometry differs", i)
		}
		if o.Config.TwoLevel() && l.Config.Policy != core.Exclusive {
			t.Errorf("point %d lost the policy: %v", i, l.Config.Policy)
		}
	}
	// The loaded points must still rank and envelope identically.
	eo, el := Envelope(orig), Envelope(loaded)
	if len(eo) != len(el) {
		t.Errorf("envelopes differ after round trip: %d vs %d", len(eo), len(el))
	}
}

func TestLoadJSONErrors(t *testing.T) {
	goodPoint := `"label":"4:0","l1_kb":4,"area_rbe":100,"tpi_ns":9,"l1_cycle_ns":2.5,"offchip_ns":50,"issue_rate":1,"stats":{}`
	cases := []struct {
		name, in, wantErr string
	}{
		{"not json", `not json`, "decoding"},
		{"truncated", `{"format":"twolevel-sweep/1","points":[{` + goodPoint, "decoding"},
		{"unknown format", `{"format":"something-else/9","points":[]}`, "unknown format"},
		{"zero l1", `{"format":"twolevel-sweep/1","points":[{"label":"x","l1_kb":0}]}`, "bad L1 size"},
		{"negative area", `{"format":"twolevel-sweep/1","points":[{` + strings.Replace(goodPoint, `"area_rbe":100`, `"area_rbe":-1`, 1) + `}]}`, "bad area_rbe"},
		{"negative tpi", `{"format":"twolevel-sweep/1","points":[{` + strings.Replace(goodPoint, `"tpi_ns":9`, `"tpi_ns":-9`, 1) + `}]}`, "bad tpi_ns"},
		{"negative cycle", `{"format":"twolevel-sweep/1","points":[{` + strings.Replace(goodPoint, `"l1_cycle_ns":2.5`, `"l1_cycle_ns":-2.5`, 1) + `}]}`, "bad cycle"},
		{"negative l2", `{"format":"twolevel-sweep/1","points":[{` + goodPoint + `,"l2_kb":-8}]}`, "bad L2 size"},
		{"zero-way l2", `{"format":"twolevel-sweep/1","points":[{` + goodPoint + `,"l2_kb":16,"l2_assoc":0}]}`, "bad configuration"},
		{"l1 not a power of two", `{"format":"twolevel-sweep/1","points":[{` + strings.Replace(goodPoint, `"l1_kb":4`, `"l1_kb":3`, 1) + `}]}`, "bad configuration"},
		{"l1 overflows bytes", `{"format":"twolevel-sweep/1","points":[{` + strings.Replace(goodPoint, `"l1_kb":4`, `"l1_kb":9007199254740992`, 1) + `}]}`, "bad L1 size"},
		{"l2 overflows bytes", `{"format":"twolevel-sweep/1","points":[{` + goodPoint + `,"l2_kb":9007199254740992,"l2_assoc":4}]}`, "bad L2 size"},
		{"zero issue rate", `{"format":"twolevel-sweep/1","points":[{` + strings.Replace(goodPoint, `"issue_rate":1`, `"issue_rate":0`, 1) + `}]}`, "bad machine"},
		{"zero l1 cycle", `{"format":"twolevel-sweep/1","points":[{` + strings.Replace(goodPoint, `"l1_cycle_ns":2.5`, `"l1_cycle_ns":0`, 1) + `}]}`, "bad machine"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := LoadJSON(strings.NewReader(tc.in))
			if err == nil {
				t.Fatalf("input %.40q accepted", tc.in)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("err = %q, want it to mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestUnmarshalPointJSONValidates checks that the single-point decoder
// the durable store uses rejects what LoadJSON does.
func TestUnmarshalPointJSONValidates(t *testing.T) {
	good := `{"label":"4:16","l1_kb":4,"l2_kb":16,"l2_assoc":4,"area_rbe":100,"tpi_ns":9,"l1_cycle_ns":2.5,"l2_cycle_ns":5,"offchip_ns":50,"issue_rate":1,"stats":{}}`
	if _, err := UnmarshalPointJSON([]byte(good)); err != nil {
		t.Fatalf("valid point rejected: %v", err)
	}
	for _, bad := range []string{
		strings.Replace(good, `"l2_assoc":4`, `"l2_assoc":0`, 1),
		strings.Replace(good, `"l2_assoc":4`, `"l2_assoc":3`, 1),
		strings.Replace(good, `"l1_kb":4`, `"l1_kb":3`, 1),
		strings.Replace(good, `"offchip_ns":50`, `"offchip_ns":0`, 1),
	} {
		if p, err := UnmarshalPointJSON([]byte(bad)); err == nil {
			t.Errorf("%s loaded as %s", bad, p.Config)
		}
	}
}

// goldenSweepDoc is a small twolevel-sweep/1 document of the kind
// SaveJSON writes: a single-level point, exact two-level points under
// two policies, and a fast-tier point.
const goldenSweepDoc = `{
  "format": "twolevel-sweep/1",
  "points": [
    {"label": "4:0", "workload": "gcc1", "evaluator": "exact", "l1_kb": 4, "l2_kb": 0, "area_rbe": 41230.5, "tpi_ns": 9.25, "l1_cycle_ns": 2.75, "offchip_ns": 50, "issue_rate": 1, "stats": {"InstrRefs": 750, "DataRefs": 250, "L1IHits": 700, "L1IMisses": 50, "L1DHits": 200, "L1DMisses": 50, "OffChipFetches": 100, "WriteRefs": 60, "WriteBacksOffChip": 12}},
    {"label": "4:32", "workload": "gcc1", "evaluator": "exact", "l1_kb": 4, "l2_kb": 32, "l2_assoc": 4, "policy": "exclusive", "area_rbe": 180000, "tpi_ns": 6.5, "l1_cycle_ns": 2.75, "l2_cycle_ns": 5.5, "offchip_ns": 50, "issue_rate": 1, "stats": {"InstrRefs": 750, "DataRefs": 250, "L1IMisses": 50, "L1DMisses": 50, "L2Hits": 70, "L2Misses": 30, "OffChipFetches": 30, "Swaps": 9, "VictimsToL2": 90}},
    {"label": "8:64", "workload": "tomcatv", "evaluator": "exact", "l1_kb": 8, "l2_kb": 64, "l2_assoc": 1, "policy": "conventional", "area_rbe": 300000, "tpi_ns": 7, "l1_cycle_ns": 3, "l2_cycle_ns": 6, "offchip_ns": 200, "issue_rate": 2, "stats": {}},
    {"label": "2:16", "workload": "li", "evaluator": "fast", "approx": true, "l1_kb": 2, "l2_kb": 16, "l2_assoc": 4, "policy": "inclusive", "area_rbe": 90000, "tpi_ns": 8.125, "l1_cycle_ns": 2.5, "l2_cycle_ns": 5, "offchip_ns": 50, "issue_rate": 1, "stats": {"L2Hits": 1}}
  ]
}`

// FuzzLoadJSON fuzzes the sweep document decoder: it never panics,
// every point of an accepted document is one an evaluation could have
// produced, and saving the points and loading them again gives them
// back unchanged.
func FuzzLoadJSON(f *testing.F) {
	if pts, err := LoadJSON(strings.NewReader(goldenSweepDoc)); err != nil || len(pts) != 4 {
		f.Fatalf("the golden document loads as %d points, err %v", len(pts), err)
	}
	f.Add([]byte(goldenSweepDoc))
	for _, edit := range [][2]string{
		{`"l2_assoc": 4,`, `"l2_assoc": 0,`},
		{`"l2_assoc": 1,`, `"l2_assoc": 3,`},
		{`"l1_kb": 8,`, `"l1_kb": 3,`},
		{`"l1_kb": 2,`, `"l1_kb": 9007199254740993,`},
		{`"l2_kb": 64,`, `"l2_kb": -64,`},
		{`"issue_rate": 2,`, `"issue_rate": 0,`},
		{`"tpi_ns": 7,`, `"tpi_ns": 1e400,`},
		{`"evaluator": "fast"`, `"evaluator": "slow"`},
		{`"twolevel-sweep/1"`, `"twolevel-sweep/2"`},
		{`"policy": "exclusive"`, `"policy": "other"`},
	} {
		f.Add([]byte(strings.Replace(goldenSweepDoc, edit[0], edit[1], 1)))
	}
	f.Add([]byte(goldenSweepDoc[:len(goldenSweepDoc)/2]))
	f.Fuzz(func(t *testing.T, data []byte) {
		points, err := LoadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i, p := range points {
			if err := p.Config.Validate(); err != nil {
				t.Fatalf("point %d loaded with an invalid configuration: %v", i, err)
			}
			if err := p.Machine.Validate(); err != nil {
				t.Fatalf("point %d loaded with an invalid machine: %v", i, err)
			}
		}
		var buf bytes.Buffer
		if err := SaveJSON(&buf, points); err != nil {
			t.Fatalf("SaveJSON of loaded points: %v", err)
		}
		again, err := LoadJSON(&buf)
		if err != nil {
			t.Fatalf("LoadJSON of saved points: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(again, points) {
			t.Fatalf("save and load changed the points:\n got %+v\nwant %+v", again, points)
		}
	})
}

// JSON cannot encode NaN/Inf directly, but a hand-edited or corrupted
// document could still smuggle them via large exponents; LoadJSON must
// reject what badMetric flags either way.
func TestLoadJSONRejectsInfinity(t *testing.T) {
	in := `{"format":"twolevel-sweep/1","points":[{"label":"4:0","l1_kb":4,` +
		`"area_rbe":1e400,"tpi_ns":9,"l1_cycle_ns":2.5,"offchip_ns":50,"issue_rate":1,"stats":{}}]}`
	if _, err := LoadJSON(strings.NewReader(in)); err == nil {
		t.Error("infinite area_rbe accepted")
	}
}

func TestSaveLoadJSONKeepsWorkload(t *testing.T) {
	pts := []Point{{
		Label: "4:0", Workload: "gcc1",
		AreaRbe: 100, TPINS: 9,
		Machine: perf.Machine{L1CycleNS: 2.5, OffChipNS: 50, IssueRate: 1},
	}}
	pts[0].Config.L1I.Size = 4 << 10
	var buf bytes.Buffer
	if err := SaveJSON(&buf, pts); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"workload": "gcc1"`) {
		t.Errorf("JSON missing workload field:\n%s", buf.String())
	}
	loaded, err := LoadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 1 || loaded[0].Workload != "gcc1" {
		t.Errorf("workload lost on reload: %+v", loaded)
	}
}

func TestSaveJSONShape(t *testing.T) {
	pts := []Point{{
		Label:   "4:0",
		AreaRbe: 100, TPINS: 9,
		Machine: perf.Machine{L1CycleNS: 2.5, OffChipNS: 50, IssueRate: 1},
	}}
	pts[0].Config.L1I.Size = 4 << 10
	var buf bytes.Buffer
	if err := SaveJSON(&buf, pts); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"format": "twolevel-sweep/1"`, `"label": "4:0"`, `"l1_kb": 4`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON missing %s:\n%s", want, out)
		}
	}
	// Single-level points omit the L2 fields.
	if strings.Contains(out, `"l2_assoc"`) {
		t.Errorf("single-level point carries L2 fields:\n%s", out)
	}
}
