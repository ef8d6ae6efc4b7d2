package server

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"microspec/internal/core"
	"microspec/internal/engine"
	"microspec/internal/metrics"
	"microspec/internal/trace"
)

// Admin is the HTTP telemetry plane: a small listener, separate from the
// wire-protocol port, that exposes the engine's observability surfaces to
// curl and Prometheus scrapers. It serves:
//
//	/metrics      Prometheus text exposition of the metrics registry
//	/traces       JSON tail of the sampled trace ring (?n=, ?id=)
//	/bees         JSON bee cache + quarantine + per-bee
//	              benefit attribution (estimated time saved per bee)
//	/advisor      JSON adaptive-advisor state: recent promote/demote
//	              decisions with reasons and the bee tier table; POST
//	              ?enabled=true|false toggles the decision loop
//	/slow         JSON slow-query log, trace IDs included
//	/debug/pprof  the standard Go profiler endpoints
//
// The plane is read-only with two exceptions: POST /traces/enable and
// /traces/disable toggle the sampler, and POST /advisor toggles the
// adaptive advisor — both so an operator can flip them on a live server
// without restarting it.
type Admin struct {
	db *engine.DB
	ln net.Listener
	hs *http.Server
}

// StartAdmin binds the admin plane on addr (e.g. "127.0.0.1:0") over db.
func StartAdmin(addr string, db *engine.DB) (*Admin, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	a := &Admin{db: db, ln: ln}
	// A private mux: the admin plane must not inherit handlers other
	// packages registered on http.DefaultServeMux, and pprof's init()
	// registrations there must be re-registered here explicitly.
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", a.handleMetrics)
	mux.HandleFunc("/traces", a.handleTraces)
	mux.HandleFunc("/traces/enable", a.handleTraceEnable)
	mux.HandleFunc("/traces/disable", a.handleTraceDisable)
	mux.HandleFunc("/bees", a.handleBees)
	mux.HandleFunc("/advisor", a.handleAdvisor)
	mux.HandleFunc("/slow", a.handleSlow)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	a.hs = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go a.hs.Serve(ln)
	return a, nil
}

// Addr returns the bound admin address (useful with ":0").
func (a *Admin) Addr() net.Addr { return a.ln.Addr() }

// Shutdown stops the admin listener, letting in-flight scrapes finish.
func (a *Admin) Shutdown(ctx context.Context) error {
	return a.hs.Shutdown(ctx)
}

func (a *Admin) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	metrics.WritePrometheus(w, a.db.MetricsSnapshot())
}

// tracesPayload is the /traces response shape.
type tracesPayload struct {
	Enabled bool           `json:"enabled"`
	SampleN int64          `json:"sample_n"`
	Started int64          `json:"started"`
	Traces  []*trace.Trace `json:"traces"`
}

func (a *Admin) handleTraces(w http.ResponseWriter, r *http.Request) {
	tr := a.db.Tracer()
	p := tracesPayload{Enabled: tr.Enabled(), SampleN: tr.SampleN(), Started: tr.Started()}
	if idHex := r.URL.Query().Get("id"); idHex != "" {
		id, err := strconv.ParseUint(idHex, 16, 64)
		if err != nil {
			http.Error(w, "bad trace id (want hex)", http.StatusBadRequest)
			return
		}
		if t := tr.Find(id); t != nil {
			p.Traces = []*trace.Trace{t}
		} else {
			p.Traces = []*trace.Trace{}
		}
		writeJSON(w, p)
		return
	}
	n := 50
	if s := r.URL.Query().Get("n"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			n = v
		}
	}
	p.Traces = tr.Recent(n)
	if p.Traces == nil {
		p.Traces = []*trace.Trace{}
	}
	writeJSON(w, p)
}

func (a *Admin) handleTraceEnable(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	n := 1
	if s := r.URL.Query().Get("sample"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			n = v
		}
	}
	a.db.Tracer().Enable(n)
	writeJSON(w, map[string]any{"enabled": true, "sample_n": n})
}

func (a *Admin) handleTraceDisable(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	a.db.Tracer().Disable()
	writeJSON(w, map[string]any{"enabled": false})
}

// beesPayload is the /bees response shape: one scrape shows what bees
// exist, which are benched, and — the number the
// whole micro-specialization exercise is about — how much time each one
// is estimated to have saved versus the stock interpreted path.
type beesPayload struct {
	Routines core.RoutineSet   `json:"routines"`
	Cache    core.CacheStats   `json:"cache"`
	Entries  []core.CacheEntry `json:"entries"`
	Benefits []core.BeeBenefit `json:"benefits"`
}

func (a *Admin) handleBees(w http.ResponseWriter, r *http.Request) {
	mod := a.db.Module()
	writeJSON(w, beesPayload{
		Routines: mod.Routines(),
		Cache:    mod.Cache().Stats(),
		Entries:  mod.CacheEntries(),
		Benefits: mod.BeeBenefits(),
	})
}

// handleAdvisor serves the adaptive advisor's state: GET returns recent
// promote/demote decisions with reasons plus the tier table; POST with
// ?enabled=true|false toggles the decision loop at runtime.
func (a *Admin) handleAdvisor(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		on, err := strconv.ParseBool(r.URL.Query().Get("enabled"))
		if err != nil {
			http.Error(w, "POST /advisor requires ?enabled=true|false", http.StatusBadRequest)
			return
		}
		a.db.SetAdvisorEnabled(on)
		writeJSON(w, map[string]any{"enabled": on})
	case http.MethodGet:
		writeJSON(w, a.db.Advisor().Snapshot())
	default:
		http.Error(w, "GET or POST required", http.StatusMethodNotAllowed)
	}
}

func (a *Admin) handleSlow(w http.ResponseWriter, r *http.Request) {
	slow := a.db.SlowQueries()
	if slow == nil {
		slow = []engine.SlowQuery{}
	}
	writeJSON(w, map[string]any{
		"threshold_ms": a.db.SlowQueryThreshold().Milliseconds(),
		"queries":      slow,
	})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
