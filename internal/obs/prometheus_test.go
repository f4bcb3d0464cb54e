package obs

import (
	"math"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func TestPromName(t *testing.T) {
	cases := []struct{ in, want string }{
		{"requests_total", "requests_total"},
		{"queue.depth", "queue_depth"},
		{"http/request-count", "http_request_count"},
		{"9lives", "_9lives"},
		{"", "_"},
		{"rule:recording", "rule:recording"},
		{"héllo", "h_llo"},
		{"UPPER_ok_123", "UPPER_ok_123"},
	}
	for _, c := range cases {
		if got := PromName(c.in); got != c.want {
			t.Errorf("PromName(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestWritePrometheusGolden pins the exact exposition of a small
// registry: sanitized names, TYPE lines, cumulative histogram buckets
// with the +Inf terminal, and deterministic ordering.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("requests_total").Add(3)
	r.Gauge("queue.depth").Set(-2)
	h := r.Histogram("lat_seconds", []float64{1, 2})
	for _, v := range []float64{0.5, 1.5, 5} {
		h.Observe(v)
	}

	var b strings.Builder
	if err := WritePrometheus(&b, r); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"# TYPE requests_total counter",
		"requests_total 3",
		"# TYPE queue_depth gauge",
		"queue_depth -2",
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="1"} 1`,
		`lat_seconds_bucket{le="2"} 2`,
		`lat_seconds_bucket{le="+Inf"} 3`,
		"lat_seconds_sum 7",
		"lat_seconds_count 3",
		"",
	}, "\n")
	if b.String() != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", b.String(), want)
	}
	promLint(t, b.String())
}

func TestPromWriterLabelsEscapedAndSorted(t *testing.T) {
	var b strings.Builder
	pw := NewPromWriter(&b)
	pw.Gauge("g", []PromLabel{
		{Key: "zeta", Value: "line\nbreak"},
		{Key: "alpha", Value: `quote" back\slash`},
	}, 1)
	if err := pw.Err(); err != nil {
		t.Fatal(err)
	}
	want := "# TYPE g gauge\n" +
		`g{alpha="quote\" back\\slash",zeta="line\nbreak"} 1` + "\n"
	if b.String() != want {
		t.Errorf("labels rendered %q, want %q", b.String(), want)
	}
	promLint(t, b.String())
}

// TestPromWriterFederatedFamilies exercises the federation shape: the
// same family emitted for several workers shares one TYPE line, and a
// prefixed rollup forms its own family.
func TestPromWriterFederatedFamilies(t *testing.T) {
	snap := func(n uint64) Snapshot {
		s := Snapshot{Counters: map[string]uint64{"points_total": n}}
		return s
	}
	var b strings.Builder
	pw := NewPromWriter(&b)
	pw.Snapshot(snap(1), "", []PromLabel{{Key: "worker", Value: "w1"}})
	pw.Snapshot(snap(2), "", []PromLabel{{Key: "worker", Value: "w2"}})
	pw.Snapshot(snap(3), "cluster_agg_", nil)
	out := b.String()
	if got := strings.Count(out, "# TYPE points_total counter"); got != 1 {
		t.Errorf("family header appeared %d times, want 1:\n%s", got, out)
	}
	for _, line := range []string{
		`points_total{worker="w1"} 1`,
		`points_total{worker="w2"} 2`,
		"# TYPE cluster_agg_points_total counter",
		"cluster_agg_points_total 3",
	} {
		if !strings.Contains(out, line) {
			t.Errorf("exposition missing %q:\n%s", line, out)
		}
	}
	promLint(t, out)
}

func TestFormatPromValue(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		in   float64
		want string
	}{
		{3, "3"}, {-2, "-2"}, {0, "0"}, {1.5, "1.5"},
		{inf, "+Inf"}, {-inf, "-Inf"},
	}
	for _, c := range cases {
		if got := formatPromValue(c.in); got != c.want {
			t.Errorf("formatPromValue(%v) = %q, want %q", c.in, got, c.want)
		}
	}
	if got := formatPromValue(math.NaN()); got != "NaN" {
		t.Errorf("formatPromValue(NaN) = %q", got)
	}
}

var (
	promTypeRe   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram)$`)
	promSampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)
)

// promLint is a promtool-style check over a text exposition: every line
// is a TYPE header or a sample, sample names are legal and typed before
// use, every histogram carries a +Inf bucket whose value equals _count,
// and bucket series are monotonically nondecreasing.
func promLint(t *testing.T, text string) {
	t.Helper()
	typed := map[string]string{}
	lastBucket := map[string]float64{} // family+labels → last cumulative count
	infBucket := map[string]float64{}  // family → +Inf value (last label set)
	counts := map[string]float64{}
	for i, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if line == "" {
			t.Errorf("line %d: empty line inside exposition", i+1)
			continue
		}
		if m := promTypeRe.FindStringSubmatch(line); m != nil {
			if _, dup := typed[m[1]]; dup {
				t.Errorf("line %d: duplicate TYPE for %s", i+1, m[1])
			}
			typed[m[1]] = m[2]
			continue
		}
		m := promSampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("line %d: not a valid exposition line: %q", i+1, line)
			continue
		}
		name, labels, valStr := m[1], m[2], m[3]
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, suffix) {
				if typ := typed[strings.TrimSuffix(name, suffix)]; typ == "histogram" {
					family = strings.TrimSuffix(name, suffix)
				}
			}
		}
		if _, ok := typed[family]; !ok {
			t.Errorf("line %d: sample %s before its TYPE line", i+1, name)
		}
		val, err := strconv.ParseFloat(strings.NewReplacer("+Inf", "Inf").Replace(valStr), 64)
		if err != nil {
			t.Errorf("line %d: bad value %q: %v", i+1, valStr, err)
		}
		switch {
		case strings.HasSuffix(name, "_bucket") && typed[family] == "histogram":
			stripped := regexp.MustCompile(`,?le="[^"]*"`).ReplaceAllString(labels, "")
			series := family + stripped
			if val < lastBucket[series] {
				t.Errorf("line %d: bucket series %s not cumulative (%g after %g)", i+1, series, val, lastBucket[series])
			}
			lastBucket[series] = val
			if strings.Contains(labels, `le="+Inf"`) {
				infBucket[family] = val
			}
		case strings.HasSuffix(name, "_count") && typed[family] == "histogram":
			counts[family] = val
		}
	}
	for fam, cnt := range counts {
		inf, ok := infBucket[fam]
		if !ok {
			t.Errorf("histogram %s has no +Inf bucket", fam)
		} else if inf != cnt {
			t.Errorf("histogram %s: +Inf bucket %g != _count %g", fam, inf, cnt)
		}
	}
}

// TestMuxContentNegotiation proves /metrics keeps its JSON default (the
// smoke scripts pipe a bare curl into jq) and serves the Prometheus
// text format only when asked, with PromExtra appended.
func TestMuxContentNegotiation(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total").Inc()
	mux := NewMuxOptions(r, MuxOptions{PromExtra: func(pw *PromWriter) {
		pw.Gauge("extra_gauge", nil, 7)
	}})

	get := func(target, accept string) *httptest.ResponseRecorder {
		req := httptest.NewRequest("GET", target, nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		return rec
	}

	if rec := get("/metrics", ""); !strings.Contains(rec.Header().Get("Content-Type"), "application/json") ||
		!strings.Contains(rec.Body.String(), `"hits_total": 1`) {
		t.Errorf("bare GET /metrics not JSON: %s %s", rec.Header().Get("Content-Type"), rec.Body.String())
	}
	for _, tc := range []struct{ target, accept string }{
		{"/metrics", "text/plain"},
		{"/metrics", "application/openmetrics-text"},
		{"/metrics?format=prometheus", ""},
	} {
		rec := get(tc.target, tc.accept)
		if ct := rec.Header().Get("Content-Type"); ct != PromContentType {
			t.Errorf("GET %s Accept=%q Content-Type = %q, want %q", tc.target, tc.accept, ct, PromContentType)
		}
		body := rec.Body.String()
		if !strings.Contains(body, "hits_total 1") || !strings.Contains(body, "extra_gauge 7") {
			t.Errorf("prometheus body missing series:\n%s", body)
		}
		promLint(t, body)
	}
	// format=json overrides an Accept header that would pick Prometheus.
	if rec := get("/metrics?format=json", "text/plain"); !strings.Contains(rec.Header().Get("Content-Type"), "application/json") {
		t.Errorf("format=json did not force JSON")
	}
}
