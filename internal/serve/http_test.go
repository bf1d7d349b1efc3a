package serve_test

// The /search wire contract (ParseKind, ParseSearchArgs, the status codes,
// the deadline-budget header) lives in package serve; the one handler that
// speaks it is fleet.Handler, and meshserve serves a single instance as a
// fleet of one. These tests pin the contract through that handler.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/trace"
)

// newFleetOfOne builds a one-replica fleet (Replicas defaults to 1) and
// shuts it down with the test.
func newFleetOfOne(t *testing.T, cfg fleet.Config) *fleet.Fleet {
	t.Helper()
	if cfg.Instance.Side == 0 {
		cfg.Instance.Side = 8
	}
	f, err := fleet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = f.Shutdown(ctx)
	})
	return f
}

// TestHandleSearchStatusMapping is the table-driven contract for /search's
// status codes, in particular that a client-cancelled request maps to the
// 4xx class (499/408) instead of polluting the 500 accounting, while
// server-side failures stay 5xx.
func TestHandleSearchStatusMapping(t *testing.T) {
	cases := []struct {
		name   string
		cfg    fleet.Config
		target string
		ctx    func() context.Context // nil = background
		setup  func(t *testing.T, f *fleet.Fleet)
		want   int
	}{
		{
			name:   "ok",
			target: "/search?key=3",
			want:   http.StatusOK,
		},
		{
			name:   "bad key",
			target: "/search?key=zebra",
			want:   http.StatusBadRequest,
		},
		{
			// A long linger guarantees the round is still assembling when the
			// already-cancelled request context is observed.
			name:   "client disconnect",
			cfg:    fleet.Config{Instance: serve.Config{Linger: 200 * time.Millisecond}},
			target: "/search?key=3",
			ctx: func() context.Context {
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				return ctx
			},
			want: serve.StatusClientClosedRequest,
		},
		{
			name:   "client deadline",
			cfg:    fleet.Config{Instance: serve.Config{Linger: 200 * time.Millisecond}},
			target: "/search?key=3",
			ctx: func() context.Context {
				ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
				_ = cancel // leaks into the case; the test server outlives it
				return ctx
			},
			want: http.StatusRequestTimeout,
		},
		{
			// Server-side failure (budget overrun with no oracle rung) must
			// stay a 500: only *client*-caused cancellation moves to 4xx.
			name:   "round failure",
			cfg:    fleet.Config{DisableOracle: true, Instance: serve.Config{Budget: 3}},
			target: "/search?key=3",
			want:   http.StatusInternalServerError,
		},
		{
			name:   "closed",
			target: "/search?key=3",
			setup: func(t *testing.T, f *fleet.Fleet) {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				if err := f.Shutdown(ctx); err != nil {
					t.Fatalf("shutdown: %v", err)
				}
			},
			want: http.StatusServiceUnavailable,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newFleetOfOne(t, tc.cfg)
			if tc.setup != nil {
				tc.setup(t, f)
			}
			req := httptest.NewRequest(http.MethodGet, tc.target, nil)
			if tc.ctx != nil {
				req = req.WithContext(tc.ctx())
			}
			rec := httptest.NewRecorder()
			f.Handler().ServeHTTP(rec, req)
			if rec.Code != tc.want {
				t.Fatalf("%s → %d, want %d (body %q)", tc.target, rec.Code, tc.want, rec.Body.String())
			}
		})
	}
}

// TestMetricsMeshRoundGauges pins the gauge semantics: with every mesh
// round failing its budget (deterministic overrun) and every lookup answered
// by the oracle rung, queries_per_round and sim_steps_per_round must
// describe the mesh path only — not credit oracle answers with mesh rounds
// — while degraded throughput gets its own gauge.
func TestMetricsMeshRoundGauges(t *testing.T) {
	f := newFleetOfOne(t, fleet.Config{Instance: serve.Config{Budget: 3}, ProbeInterval: time.Hour})
	for i := int64(0); i < 4; i++ {
		if _, err := f.Lookup(context.Background(), i); err != nil {
			t.Fatalf("lookup %d: %v", i, err)
		}
	}
	st := f.Stats()
	if st.OracleServed != 4 {
		t.Fatalf("scenario did not degrade every lookup: %+v", st)
	}

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	f.Handler().ServeHTTP(rec, req)
	var doc map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("metrics not JSON: %v", err)
	}
	if v, ok := doc["degraded_fraction"]; !ok || v.(float64) != 1 {
		t.Fatalf("degraded_fraction = %v, want 1 (every answer came from the oracle)", doc["degraded_fraction"])
	}
	// Mesh-path gauges: every mesh round here failed its budget (zero served
	// by the mesh), so if queries_per_round is present it must reflect only
	// failed-round accounting — never the oracle-served queries.
	agg := st.Agg
	meshRounds := agg.Rounds
	if qpr, ok := doc["queries_per_round"]; ok {
		if meshRounds == 0 {
			t.Fatalf("queries_per_round %v emitted with zero mesh rounds", qpr)
		}
		if max := float64(agg.Failed) / float64(meshRounds); qpr.(float64) > max {
			t.Fatalf("queries_per_round %v counts degraded answers (mesh max %v)", qpr, max)
		}
	}
	if _, ok := doc["in_flight"]; !ok {
		t.Fatal("metrics lacks the in_flight gauge")
	}
	// The serving percentiles must ride the same document (Stats.Latency).
	serveDoc, ok := doc["serve"].(map[string]any)
	if !ok {
		t.Fatalf("metrics lacks serve stats: %v", doc)
	}
	lat, ok := serveDoc["latency"].(map[string]any)
	if !ok {
		t.Fatalf("stats lack latency summary: %v", serveDoc)
	}
	if lat["count"].(float64) < 4 || lat["p99_ns"].(float64) <= 0 {
		t.Fatalf("latency summary not populated: %v", lat)
	}
}

// TestHTTPSurface exercises /search and /metrics end to end, including the
// typed error mapping.
func TestHTTPSurface(t *testing.T) {
	f := newFleetOfOne(t, fleet.Config{Instance: serve.Config{Tracer: trace.New(), Budget: 1 << 40, Linger: time.Millisecond}})
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/search?key=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/search?key=3 → %d", resp.StatusCode)
	}
	if resp, err := srv.Client().Get(srv.URL + "/search?key=zebra"); err == nil {
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Fatalf("/search?key=zebra → %d, want 400", resp.StatusCode)
		}
	}
	mresp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if mresp.StatusCode != 200 {
		t.Fatalf("/metrics → %d", mresp.StatusCode)
	}
}

// TestHTTPSearchKinds drives every family through the HTTP surface: typed
// kind= queries answer 200 with a kind-tagged body, unknown kinds and
// unserved kinds answer 400, and the bare v1 ?key= shape still works.
func TestHTTPSearchKinds(t *testing.T) {
	f := newFleetOfOne(t, fleet.Config{Instance: serve.Config{
		Linger: 200 * time.Microsecond,
		Kinds:  []serve.Kind{serve.KindPointLoc, serve.KindInterval, serve.KindLinePoly, serve.KindTangent},
	}})
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()
	ss := f.Structures()

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}

	for _, k := range f.Kinds() {
		st := ss.Get(k)
		args := st.ArgsFor(5)
		params := url.Values{}
		params.Set("kind", k.String())
		for i, name := range serve.SearchParams[k] {
			params.Set(name, fmt.Sprint(args[i]))
		}
		code, body := get("/search?" + params.Encode())
		if code != 200 {
			t.Fatalf("GET /search?%s → %d: %s", params.Encode(), code, body)
		}
		var res serve.Result
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatalf("%s: bad body %s: %v", k, body, err)
		}
		want := serve.HostAnswer(st, args)
		if res.Kind != k || res.Found != want.Found || res.Value != want.Value {
			t.Fatalf("%s %v over HTTP: got kind=%s found=%v value=%d, want kind=%s found=%v value=%d",
				k, args, res.Kind, res.Found, res.Value, k, want.Found, want.Value)
		}
	}

	// v1 shape: bare ?key= is a membership query.
	if code, body := get("/search?key=7"); code != 200 {
		t.Fatalf("GET /search?key=7 → %d: %s", code, body)
	}
	// Unknown kind and malformed args are client errors.
	if code, _ := get("/search?kind=bogus&key=7"); code != 400 {
		t.Fatalf("unknown kind → %d, want 400", code)
	}
	if code, _ := get("/search?kind=pointloc&x=1"); code != 400 {
		t.Fatalf("missing param → %d, want 400", code)
	}
}

// TestHTTPSearchKindNotServed hits a membership-only server with a typed kind.
func TestHTTPSearchKindNotServed(t *testing.T) {
	f := newFleetOfOne(t, fleet.Config{})
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/search?kind=pointloc&x=1&y=2")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("unserved kind → %d, want 400", resp.StatusCode)
	}
}

// TestTraceparentPropagationHTTP drives the HTTP surface the way
// loadgen.HTTPTarget does: a client-minted traceparent must be adopted as the
// server-side trace ID, echoed in the response header, and the finished trace
// must be retrievable at /debug/traces under that same ID.
func TestTraceparentPropagationHTTP(t *testing.T) {
	f := newFleetOfOne(t, fleet.Config{
		Instance: serve.Config{Linger: 100 * time.Microsecond, Tracer: trace.New()},
		Obs:      obs.New(obs.Config{}),
	})
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()

	id := obs.NewTraceID()
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/search?key=7", nil)
	req.Header.Set("Traceparent", id.Traceparent())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/search: %d", resp.StatusCode)
	}
	echoed, err := obs.ParseTraceparent(resp.Header.Get("Traceparent"))
	if err != nil || echoed != id {
		t.Fatalf("response traceparent %q does not echo the request ID %s (err %v)",
			resp.Header.Get("Traceparent"), id, err)
	}

	dr, err := http.Get(srv.URL + "/debug/traces?id=" + id.String())
	if err != nil {
		t.Fatal(err)
	}
	defer dr.Body.Close()
	if dr.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces?id=: %d", dr.StatusCode)
	}
	var doc obs.TraceJSON
	if err := json.NewDecoder(dr.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.ID != id.String() || doc.Needle != 7 || doc.Outcome != "mesh" {
		t.Fatalf("retrieved trace: %+v", doc)
	}
	if len(doc.Spans) == 0 || doc.RunSeq <= 0 {
		t.Fatalf("trace lacks spans or run link: %+v", doc)
	}

	// A malformed inbound header is ignored per spec: the server mints its
	// own ID and still echoes a valid one.
	req2, _ := http.NewRequest(http.MethodGet, srv.URL+"/search?key=9", nil)
	req2.Header.Set("Traceparent", "garbage")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if _, err := obs.ParseTraceparent(resp2.Header.Get("Traceparent")); err != nil {
		t.Fatalf("malformed inbound header: response carries invalid traceparent %q",
			resp2.Header.Get("Traceparent"))
	}
}

// TestMetricsPrometheusFormat smoke-tests the text exposition next to the
// JSON default: right content type, the core families present, histogram
// series terminated by +Inf. (Full grammar validation lives in internal/obs
// and the CI obs-smoke job.)
func TestMetricsPrometheusFormat(t *testing.T) {
	f := newFleetOfOne(t, fleet.Config{
		Instance: serve.Config{Linger: 100 * time.Microsecond, Tracer: trace.New()},
		Obs:      obs.New(obs.Config{}),
	})
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()
	if resp, err := http.Get(srv.URL + "/search?key=7"); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	resp, err := http.Get(srv.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("content type %q, want %q", ct, obs.ContentType)
	}
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"# TYPE meshserve_lookups_total counter",
		`meshserve_lookups_total{result="accepted"} 1`,
		"# TYPE meshserve_request_duration_seconds histogram",
		`meshserve_request_duration_seconds_bucket{outcome="all",le="+Inf"} 1`,
		`meshserve_stage_duration_seconds_bucket{stage="mesh_round",le="+Inf"} 1`,
		`meshserve_requests_total{outcome="mesh"} 1`,
		"meshserve_slo_latency_burn_rate",
		`meshserve_health_state{state="healthy"} 1`,
		"meshserve_queue_capacity",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// The JSON document stays the default — remote scrapers predate the flag.
	jr, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Body.Close()
	if ct := jr.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("default /metrics content type %q, want JSON", ct)
	}
}

// TestDebugTracesDisabled: without an Observer the endpoint exists but says
// why it has nothing, rather than 404-ing into the void.
func TestDebugTracesDisabled(t *testing.T) {
	f := newFleetOfOne(t, fleet.Config{})
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || !strings.Contains(string(body), "tracing disabled") {
		t.Fatalf("disabled /debug/traces: %d %q", resp.StatusCode, body)
	}
}
