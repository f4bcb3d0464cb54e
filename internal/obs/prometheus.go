package obs

// This file renders registry snapshots in the Prometheus text exposition
// format (text/plain; version=0.0.4): one line per sample, HELP-less but
// TYPE-annotated families, histograms expanded into the cumulative
// _bucket/_sum/_count series Prometheus expects. Callers append their
// own series to a scrape through PromWriter (cmd/served adds its -slo
// verdicts that way).
//
// Registry names are free-form; PromName maps them onto the metric-name
// grammar ([a-zA-Z_:][a-zA-Z0-9_:]*) by rewriting every illegal rune to
// '_' and prefixing names that start with a digit. Label values are
// escaped per the exposition spec (backslash, quote, newline).

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// PromContentType is the Content-Type of the Prometheus text exposition
// format served on a negotiated /metrics scrape.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// PromName sanitizes a registry metric name into the Prometheus metric
// name grammar: illegal runes become '_', and a leading digit gains a
// '_' prefix. Colons stay (they are legal, if conventionally reserved
// for recording rules). An empty name becomes "_".
func PromName(name string) string {
	if name == "" {
		return "_"
	}
	var b strings.Builder
	b.Grow(len(name) + 1)
	for i, r := range name {
		legal := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if r >= '0' && r <= '9' && i == 0 {
			b.WriteByte('_')
			b.WriteRune(r)
			continue
		}
		if legal {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// PromLabel is one label on an exposed series. Labels render sorted by
// key, so output is deterministic regardless of construction order.
type PromLabel struct {
	Key   string
	Value string
}

// promEscaper escapes a label value per the text exposition format.
var promEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// PromWriter streams one text-format exposition. It tracks which
// families have had their TYPE line emitted so multiple label sets of
// one family share a single header, and
// latches the first write error so callers can chain emissions and
// check once.
type PromWriter struct {
	w     io.Writer
	typed map[string]string // family → emitted TYPE
	err   error
}

// NewPromWriter starts an exposition on w.
func NewPromWriter(w io.Writer) *PromWriter {
	return &PromWriter{w: w, typed: make(map[string]string)}
}

// Err reports the first write failure, if any.
func (p *PromWriter) Err() error { return p.err }

// header emits the family's TYPE line once. A family seen again under a
// different type keeps its first type (the exposition would otherwise
// be invalid); samples still render.
func (p *PromWriter) header(family, typ string) {
	if _, ok := p.typed[family]; ok {
		return
	}
	p.typed[family] = typ
	p.printf("# TYPE %s %s\n", family, typ)
}

func (p *PromWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// series renders one sample line: name{labels} value.
func (p *PromWriter) series(name string, labels []PromLabel, value float64) {
	p.printf("%s%s %s\n", name, renderLabels(labels), formatPromValue(value))
}

// Counter emits one counter sample. The name is sanitized here, so
// callers pass raw registry names.
func (p *PromWriter) Counter(name string, labels []PromLabel, v uint64) {
	n := PromName(name)
	p.header(n, "counter")
	p.series(n, labels, float64(v))
}

// Gauge emits one gauge sample.
func (p *PromWriter) Gauge(name string, labels []PromLabel, v float64) {
	n := PromName(name)
	p.header(n, "gauge")
	p.series(n, labels, v)
}

// Histogram emits one histogram as its cumulative _bucket series (with
// the mandatory le="+Inf" terminal), _sum, and _count.
func (p *PromWriter) Histogram(name string, labels []PromLabel, h HistogramSnapshot) {
	n := PromName(name)
	p.header(n, "histogram")
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		le := "+Inf"
		if i < len(h.Bounds) {
			le = formatPromValue(h.Bounds[i])
		}
		p.series(n+"_bucket", append(append([]PromLabel(nil), labels...), PromLabel{"le", le}), float64(cum))
	}
	if len(h.Counts) == 0 {
		// A histogram with no buckets at all still needs its +Inf bucket
		// for the exposition to parse.
		p.series(n+"_bucket", append(append([]PromLabel(nil), labels...), PromLabel{"le", "+Inf"}), float64(h.Count))
	}
	p.series(n+"_sum", labels, h.Sum)
	p.series(n+"_count", labels, float64(h.Count))
}

// Snapshot emits every instrument of a snapshot, unlabelled, in sorted
// name order so scrapes are deterministic.
func (p *PromWriter) Snapshot(s Snapshot) {
	for _, name := range sortedKeys(s.Counters) {
		p.Counter(name, nil, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		p.Gauge(name, nil, float64(s.Gauges[name]))
	}
	for _, name := range sortedKeys(s.Histograms) {
		p.Histogram(name, nil, s.Histograms[name])
	}
}

// WritePrometheus renders the registry's snapshot as one complete text
// exposition — what /metrics serves under content negotiation. A nil
// registry writes an empty (valid) exposition.
func WritePrometheus(w io.Writer, r *Registry) error {
	pw := NewPromWriter(w)
	pw.Snapshot(r.Snapshot())
	return pw.Err()
}

// renderLabels renders a label set sorted by key, or "" for none.
func renderLabels(labels []PromLabel) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]PromLabel(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(PromName(l.Key))
		b.WriteString(`="`)
		b.WriteString(promEscaper.Replace(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// formatPromValue renders a float the way Prometheus expects: integers
// without a fraction, specials as +Inf/-Inf/NaN.
func formatPromValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
