package obs

// This file is the per-endpoint latency instrumentation: a middleware
// observing every request's wall time into a per-route histogram
// (http_request_seconds_<method>_<route>) plus a status-class counter,
// feeding the SLO layer's per-endpoint quantiles. Routes are normalized
// (ids collapse to "id") and capped in number, so a scanner walking
// random URLs cannot explode metric cardinality.

import (
	"net/http"
	"strings"
	"sync"
	"time"
)

// HTTPMetricPrefix prefixes every per-route latency histogram.
const HTTPMetricPrefix = "http_request_seconds_"

// httpRouteCap bounds distinct instrumented routes; overflow lands on
// the "other" route.
const httpRouteCap = 64

// httpBuckets spans 100µs to ~1.6ks, doubling — HTTP handler times.
func httpBuckets() []float64 { return ExpBuckets(0.0001, 2, 24) }

// InstrumentHTTP wraps next so every request records its latency into
// reg. A nil registry returns next unchanged (the usual obs contract:
// uninstrumented means free).
func InstrumentHTTP(reg *Registry, next http.Handler) http.Handler {
	if reg == nil {
		return next
	}
	ins := &httpInstrument{reg: reg, hists: make(map[string]*Histogram)}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(sw, r)
		route := NormalizeRoute(r.Method, r.URL.Path)
		ins.observe(route, time.Since(start).Seconds())
		reg.Counter("http_requests_total_" + route).Inc()
		if sw.code >= 500 {
			reg.Counter("http_errors_total_" + route).Inc()
		}
	})
}

type httpInstrument struct {
	reg *Registry

	mu    sync.Mutex
	hists map[string]*Histogram
}

// observe funnels one sample into the route's histogram, interning it
// on first use and collapsing routes past the cardinality cap.
func (h *httpInstrument) observe(route string, seconds float64) {
	h.mu.Lock()
	hist, ok := h.hists[route]
	if !ok {
		if len(h.hists) >= httpRouteCap {
			route = "other"
			if hist, ok = h.hists[route]; !ok {
				hist = h.reg.Histogram(HTTPMetricPrefix+route, httpBuckets())
				h.hists[route] = hist
			}
		} else {
			hist = h.reg.Histogram(HTTPMetricPrefix+route, httpBuckets())
			h.hists[route] = hist
		}
	}
	h.mu.Unlock()
	hist.Observe(seconds)
}

// NormalizeRoute folds one request onto its metric route: lowercase
// method, path segments joined by '_', id-shaped segments (job ids,
// digits) collapsed to "id". "GET /v1/jobs/j42/trace" →
// "get_v1_jobs_id_trace".
func NormalizeRoute(method, path string) string {
	var b strings.Builder
	b.WriteString(strings.ToLower(method))
	for _, seg := range strings.Split(path, "/") {
		if seg == "" {
			continue
		}
		b.WriteByte('_')
		if idSegment(seg) {
			b.WriteString("id")
			continue
		}
		b.WriteString(PromName(strings.ToLower(seg)))
	}
	if b.Len() == len(strings.ToLower(method)) {
		b.WriteString("_root")
	}
	return b.String()
}

// idSegment reports whether a path segment looks like an identifier
// (all digits, or a one-letter prefix then digits — the job-id
// shape "j42"). API version segments ("v1") share that shape but name a
// route, not an instance, so 'v' prefixes are exempt.
func idSegment(seg string) bool {
	if seg == "" {
		return false
	}
	digits := seg
	if seg[0] >= 'a' && seg[0] <= 'z' && len(seg) > 1 {
		if seg[0] == 'v' {
			return false
		}
		digits = seg[1:]
	}
	for i := 0; i < len(digits); i++ {
		if digits[i] < '0' || digits[i] > '9' {
			return false
		}
	}
	return true
}

// statusWriter captures the response status for the error counter.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards streaming flushes so instrumented handlers keep
// working behind the wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
