package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"microspec/internal/client"
	"microspec/internal/trace"
)

// adminGet fetches one admin endpoint and returns the body.
func adminGet(t *testing.T, a *Admin, path string) []byte {
	t.Helper()
	resp, err := http.Get("http://" + a.Addr().String() + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s read: %v", path, err)
	}
	return body
}

func TestAdminEndToEndTraceAndBenefits(t *testing.T) {
	srv, db := startServer(t, nil)
	db.Tracer().Enable(1)
	admin, err := StartAdmin("127.0.0.1:0", db)
	if err != nil {
		t.Fatalf("StartAdmin: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		admin.Shutdown(ctx)
	})

	c, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	// A client-supplied trace ID must be honored, propagated through the
	// engine, and echoed back on Done.
	const wantID = 0xdeadbeefcafe
	c.TraceNext(wantID)
	res, err := c.Query("select k, v from kv where k < 50")
	if err != nil {
		t.Fatalf("traced Query: %v", err)
	}
	if res.TraceID != wantID {
		t.Fatalf("echoed TraceID = %x, want %x", res.TraceID, wantID)
	}

	// The span tree at /traces?id= must cover wire→parse→plan→exec.
	body := adminGet(t, admin, fmt.Sprintf("/traces?id=%x", wantID))
	var tp struct {
		Enabled bool           `json:"enabled"`
		Traces  []*trace.Trace `json:"traces"`
	}
	if err := json.Unmarshal(body, &tp); err != nil {
		t.Fatalf("/traces JSON: %v\n%s", err, body)
	}
	if !tp.Enabled || len(tp.Traces) != 1 {
		t.Fatalf("/traces?id= returned enabled=%v traces=%d", tp.Enabled, len(tp.Traces))
	}
	tr := tp.Traces[0]
	if tr.ID != wantID {
		t.Fatalf("trace ID = %x, want %x", tr.ID, wantID)
	}
	seen := map[string]bool{}
	for _, sp := range tr.Spans {
		seen[sp.Name] = true
	}
	for _, want := range []string{"wire.read", "wire.decode", "parse", "plan", "exec"} {
		if !seen[want] {
			t.Errorf("trace %x missing span %q (have %v)", wantID, want, tr.Spans)
		}
	}
	// Per-exec-node spans fold under exec for traced ad-hoc queries.
	var hasNode bool
	for name := range seen {
		if strings.HasPrefix(name, "exec.node.") {
			hasNode = true
		}
	}
	if !hasNode {
		t.Errorf("trace %x has no exec.node.* spans (have %v)", wantID, tr.Spans)
	}

	// /bees must attribute nonzero estimated savings to the scan bees the
	// query exercised.
	body = adminGet(t, admin, "/bees")
	var bp struct {
		Benefits []struct {
			Kind       string `json:"kind"`
			Name       string `json:"name"`
			Rows       int64  `json:"rows"`
			EstSavedNs int64  `json:"est_saved_ns"`
		} `json:"benefits"`
	}
	if err := json.Unmarshal(body, &bp); err != nil {
		t.Fatalf("/bees JSON: %v\n%s", err, body)
	}
	var saved int64
	for _, b := range bp.Benefits {
		saved += b.EstSavedNs
	}
	if saved <= 0 {
		t.Errorf("/bees benefits show no estimated savings: %s", body)
	}

	// /metrics must render Prometheus exposition including trace counters.
	promText := string(adminGet(t, admin, "/metrics"))
	for _, want := range []string{"# TYPE microspec_", "microspec_trace_started", "microspec_server_requests"} {
		if !strings.Contains(promText, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// /slow responds even when empty.
	adminGet(t, admin, "/slow")

	// pprof index is wired on the private mux.
	adminGet(t, admin, "/debug/pprof/")

	// The Bee Collector takes a dropped relation's bee out of every array
	// of /bees — entries and benefits render from the same registry.
	if !strings.Contains(string(body), `"kv"`) {
		t.Fatalf("/bees does not list relation kv before the drop: %s", body)
	}
	if _, err := c.Exec("drop table kv"); err != nil {
		t.Fatalf("drop table: %v", err)
	}
	if body = adminGet(t, admin, "/bees"); strings.Contains(string(body), `"kv"`) {
		t.Errorf("/bees still lists relation kv after DROP TABLE: %s", body)
	}
}

func TestAdminTraceToggle(t *testing.T) {
	_, db := startServer(t, nil)
	admin, err := StartAdmin("127.0.0.1:0", db)
	if err != nil {
		t.Fatalf("StartAdmin: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		admin.Shutdown(ctx)
	})

	if resp, err := http.Get("http://" + admin.Addr().String() + "/traces/enable"); err != nil {
		t.Fatalf("GET enable: %v", err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET enable status = %d, want 405", resp.StatusCode)
	}
	resp, err := http.Post("http://"+admin.Addr().String()+"/traces/enable?sample=4", "", nil)
	if err != nil {
		t.Fatalf("POST enable: %v", err)
	}
	resp.Body.Close()
	if !db.Tracer().Enabled() || db.Tracer().SampleN() != 4 {
		t.Fatalf("tracer enabled=%v sample=%d after POST enable", db.Tracer().Enabled(), db.Tracer().SampleN())
	}
	resp, err = http.Post("http://"+admin.Addr().String()+"/traces/disable", "", nil)
	if err != nil {
		t.Fatalf("POST disable: %v", err)
	}
	resp.Body.Close()
	if db.Tracer().Enabled() {
		t.Fatal("tracer still enabled after POST disable")
	}
}
