package obs

// This file implements the live endpoints behind the cmd tools' -listen
// flag: an expvar-style JSON snapshot of the metrics registry, an
// optional caller-computed progress/ETA summary, and net/http/pprof for
// CPU/heap/goroutine profiling of a running sweep.

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
)

// MuxOptions extends the observability mux beyond the plain registry
// snapshot. The zero value is NewMux's classic behavior.
type MuxOptions struct {
	// Summary, when non-nil, is served as JSON on /progress.
	Summary func() any
	// PromExtra, when non-nil, appends extra series to a Prometheus
	// /metrics scrape after the registry's own (cmd/served's -slo
	// verdicts).
	PromExtra func(*PromWriter)
}

// NewMux builds the observability mux:
//
//	/metrics        metric snapshot; JSON by default, Prometheus text
//	                exposition under content negotiation (an Accept
//	                header naming text/plain or openmetrics, or
//	                ?format=prometheus)
//	/progress       JSON of summary() (404 when summary is nil)
//	/debug/pprof/*  net/http/pprof handlers
//	/               a plain-text index of the above
func NewMux(reg *Registry, summary func() any) *http.ServeMux {
	return NewMuxOptions(reg, MuxOptions{Summary: summary})
}

// NewMuxOptions builds the observability mux with extensions: a
// progress summary and extra Prometheus series.
func NewMuxOptions(reg *Registry, o MuxOptions) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		build := ReadBuildInfo()
		if !wantsProm(r) {
			// The JSON dialect pins the build-info gauge into the snapshot
			// and carries the identity strings in a sibling "build" object
			// (additive: {counters,gauges,histograms} consumers are
			// untouched).
			snap := reg.Snapshot()
			snap.Gauges[MetricBuildInfo] = 1
			writeJSON(w, struct {
				Snapshot
				Build BuildInfo `json:"build"`
			}{snap, build})
			return
		}
		w.Header().Set("Content-Type", PromContentType)
		pw := NewPromWriter(w)
		pw.Snapshot(reg.Snapshot())
		pw.Gauge(MetricBuildInfo, build.PromLabels(), 1)
		if o.PromExtra != nil {
			o.PromExtra(pw)
		}
	})
	if o.Summary != nil {
		mux.HandleFunc("/progress", func(w http.ResponseWriter, _ *http.Request) {
			writeJSON(w, o.Summary())
		})
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "twolevel observability endpoints:")
		fmt.Fprintln(w, "  /metrics       metric snapshot (JSON; Prometheus text via Accept or ?format=prometheus)")
		if o.Summary != nil {
			fmt.Fprintln(w, "  /progress      run progress and ETA (JSON)")
		}
		fmt.Fprintln(w, "  /debug/pprof/  profiling")
	})
	return mux
}

// wantsProm decides the /metrics representation: Prometheus text when
// the scrape asks for it (?format=prometheus, or an Accept header
// naming text/plain or openmetrics — what prometheus scrapers send),
// JSON otherwise (?format=json forces it; a bare curl keeps today's
// JSON snapshot).
func wantsProm(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prometheus", "text":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") || strings.Contains(accept, "openmetrics")
}

func writeJSON(w http.ResponseWriter, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(b, '\n'))
}

// Server is a running observability HTTP server.
type Server struct {
	l   net.Listener
	srv *http.Server
}

// Serve starts the observability server on addr (":0" picks a free
// port). It returns once the listener is bound; requests are served on a
// background goroutine until Close or Shutdown.
func Serve(addr string, reg *Registry, summary func() any) (*Server, error) {
	return ServeHandler(addr, NewMux(reg, summary))
}

// ServeHandler starts an HTTP server for an arbitrary handler with the
// same lifecycle as Serve — cmd/served uses it to serve the job-service
// API alongside the observability endpoints.
func ServeHandler(addr string, h http.Handler) (*Server, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s := &Server{l: l, srv: &http.Server{Handler: h}}
	go s.srv.Serve(l) //nolint:errcheck // Serve always returns on Close/Shutdown
	return s, nil
}

// Addr reports the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.l.Addr().String() }

// Close shuts the server down immediately, dropping in-flight requests.
func (s *Server) Close() error { return s.srv.Close() }

// Shutdown drains the server gracefully: the listener closes
// immediately (no new connections), and in-flight requests get until
// ctx expires to complete before being cut off.
func (s *Server) Shutdown(ctx context.Context) error { return s.srv.Shutdown(ctx) }
