package obs

// This file is the SLO layer: a parsed latency objective list
// ("p99:evaluate:500ms,p50:job:2s"), streaming quantile estimates
// derived from the registry's fixed-bucket histograms, and pass/fail
// verdicts that surface as slo_burn/slo_pass series on a Prometheus
// scrape and in loadgen reports. Objectives are evaluated against a
// Snapshot of a registry.

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// SLO is one latency objective: the q-th quantile of a histogram must
// sit at or under Threshold. Metric names a histogram in the evaluated
// snapshot, either directly or through the alias table passed to
// EvalSLOs (e.g. "evaluate" → sweep_config_seconds).
type SLO struct {
	Quantile  float64       `json:"quantile"`
	Metric    string        `json:"metric"`
	Threshold time.Duration `json:"threshold"`
}

// Spec renders the objective back in the -slo flag syntax.
func (s SLO) Spec() string {
	return fmt.Sprintf("p%s:%s:%s",
		strconv.FormatFloat(s.Quantile*100, 'f', -1, 64), s.Metric, s.Threshold)
}

// ParseSLOs parses a comma-separated objective list of the form
// p<percentile>:<metric>:<threshold>, e.g. "p99:evaluate:500ms". The
// percentile may be fractional (p99.9); the threshold is a Go duration.
// An empty string parses to no objectives.
func ParseSLOs(s string) ([]SLO, error) {
	var out []SLO
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.SplitN(part, ":", 3)
		if len(fields) != 3 {
			return nil, fmt.Errorf("obs: bad SLO %q, want p<percentile>:<metric>:<threshold>", part)
		}
		if !strings.HasPrefix(fields[0], "p") {
			return nil, fmt.Errorf("obs: bad SLO quantile %q, want e.g. p99", fields[0])
		}
		pct, err := strconv.ParseFloat(fields[0][1:], 64)
		if err != nil || pct <= 0 || pct > 100 {
			return nil, fmt.Errorf("obs: bad SLO quantile %q, want a percentile in (0, 100]", fields[0])
		}
		if fields[1] == "" {
			return nil, fmt.Errorf("obs: SLO %q names no metric", part)
		}
		d, err := time.ParseDuration(fields[2])
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("obs: bad SLO threshold %q, want a positive duration like 500ms", fields[2])
		}
		out = append(out, SLO{Quantile: pct / 100, Metric: fields[1], Threshold: d})
	}
	return out, nil
}

// SLOVerdict is one evaluated objective.
type SLOVerdict struct {
	// SLO restates the objective in flag syntax, e.g. "p99:evaluate:500ms".
	SLO string `json:"slo"`
	// Metric is the histogram the verdict was measured on (aliases
	// resolved).
	Metric     string  `json:"metric"`
	Quantile   float64 `json:"quantile"`
	ThresholdS float64 `json:"threshold_s"`
	// MeasuredS is the interpolated quantile estimate in seconds.
	MeasuredS float64 `json:"measured_s"`
	// Burn is MeasuredS/ThresholdS: under 1 the objective holds, over 1
	// it is violated, and the magnitude says by how much.
	Burn float64 `json:"burn"`
	Pass bool    `json:"pass"`
	// Count is the number of observations behind the estimate. A verdict
	// over zero observations passes vacuously (nothing has been slow).
	Count uint64 `json:"count"`
}

// SLOAliases maps the friendly phase names accepted in -slo specs onto
// the histograms that measure them, so operators write p99:evaluate:…
// without memorizing registry names.
var SLOAliases = map[string]string{
	"evaluate": "sweep_config_seconds",
	"job":      "service_job_seconds",
}

// EvalSLOs evaluates every objective against the snapshot. aliases maps
// friendly phase names to histogram names (a metric not in the table is
// looked up verbatim); a missing histogram yields a vacuous pass with
// Count 0, so a freshly booted or idle node is not "violating".
func EvalSLOs(slos []SLO, s Snapshot, aliases map[string]string) []SLOVerdict {
	out := make([]SLOVerdict, 0, len(slos))
	for _, o := range slos {
		name := o.Metric
		if a, ok := aliases[name]; ok {
			name = a
		}
		v := SLOVerdict{
			SLO:        o.Spec(),
			Metric:     name,
			Quantile:   o.Quantile,
			ThresholdS: o.Threshold.Seconds(),
			Pass:       true,
		}
		if h, ok := s.Histograms[name]; ok && h.Count > 0 {
			v.MeasuredS = h.Quantile(o.Quantile)
			v.Burn = v.MeasuredS / v.ThresholdS
			v.Pass = v.MeasuredS <= v.ThresholdS
			v.Count = h.Count
		}
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SLO < out[j].SLO })
	return out
}

// WriteProm emits the verdicts as slo_burn (the measured/threshold
// ratio) and slo_pass (1/0) gauges, one series per objective labeled by
// its spec — the scrape-side face of the SLO layer.
func WriteSLOVerdicts(pw *PromWriter, verdicts []SLOVerdict) {
	for _, v := range verdicts {
		labels := []PromLabel{{"slo", v.SLO}, {"metric", v.Metric}}
		pw.Gauge("slo_burn", labels, v.Burn)
		pass := 0.0
		if v.Pass {
			pass = 1
		}
		pw.Gauge("slo_pass", labels, pass)
	}
}
