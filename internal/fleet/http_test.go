package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/serve"
)

// TestFleetHTTPSurface walks the fleet handler through the robustness
// contract of DESIGN.md §3.8: /healthz stays 200 through a single replica
// kill (that is the fleet working as designed), /search keeps answering
// correctly all the way down to the oracle rung, and only an all-replicas
// outage flips /healthz to 503 — with a Retry-After.
func TestFleetHTTPSurface(t *testing.T) {
	f := newTestFleet(t, Config{Replicas: 3, Instance: serve.Config{Side: 8, Linger: 100 * time.Microsecond}})
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()

	get := func(path string) (int, http.Header, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, resp.Header, string(body)
	}
	search := func(key string) (int, Result) {
		t.Helper()
		code, _, body := get("/search?key=" + key)
		var res Result
		if code == http.StatusOK {
			if err := json.Unmarshal([]byte(body), &res); err != nil {
				t.Fatalf("bad /search body %q: %v", body, err)
			}
		}
		return code, res
	}

	// Healthy fleet: correct answers with replica attribution, 200 health.
	code, res := search("3")
	if code != 200 || !res.Found || res.LeafKey != 3 || res.Replica < 0 || res.Degraded {
		t.Fatalf("healthy /search → %d %+v", code, res)
	}
	if code, _, _ := get("/search?key=banana"); code != http.StatusBadRequest {
		t.Fatalf("garbage key → %d, want 400", code)
	}
	if code, _, body := get("/healthz"); code != 200 || !strings.Contains(body, "healthy") {
		t.Fatalf("/healthz on a whole fleet → %d %s", code, body)
	}

	// One replica down: not an incident. Health stays 200, serving continues.
	if err := f.CrashReplica(0); err != nil {
		t.Fatal(err)
	}
	if code, _, body := get("/healthz"); code != 200 {
		t.Fatalf("/healthz with 1 of 3 replicas down → %d %s (a single loss must not flip health)", code, body)
	}
	code, res = search("5")
	if code != 200 || !res.Found || res.Degraded {
		t.Fatalf("/search with one replica down → %d %+v", code, res)
	}

	// Every replica down: degraded, 503 health with a retry hint, and
	// /search answers from the fleet oracle rather than erroring.
	if err := f.CrashReplica(1); err != nil {
		t.Fatal(err)
	}
	if err := f.CrashReplica(2); err != nil {
		t.Fatal(err)
	}
	code, hdr, body := get("/healthz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "degraded") {
		t.Fatalf("/healthz with all replicas down → %d %s", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("unhealthy /healthz carries no Retry-After")
	}
	code, res = search("7")
	if code != 200 || !res.Found || !res.Degraded || res.Replica != -1 {
		t.Fatalf("all-down /search → %d %+v, want a degraded oracle answer", code, res)
	}

	// /metrics stays instance-shaped for shared scrapers.
	code, _, body = get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics → %d", code)
	}
	var doc struct {
		Serve serve.Stats `json:"serve"`
		Fleet Stats       `json:"fleet"`
		Side  int         `json:"side"`
		Keys  int         `json:"keys"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("bad /metrics body: %v", err)
	}
	if doc.Side != 8 || doc.Keys != len(f.Tree().Keys) {
		t.Fatalf("/metrics shape fields: %+v", doc)
	}
	if doc.Fleet.Crashes != 3 || doc.Fleet.OracleServed == 0 {
		t.Fatalf("/metrics fleet counters: %+v", doc.Fleet)
	}
	if doc.Serve.Served == 0 {
		t.Fatal("/metrics aggregate lost the crashed replicas' serving history")
	}
}

// TestFleetHTTPAfterShutdown pins the draining surface: 503 with Retry-After
// on /search, lame-duck on /healthz.
func TestFleetHTTPAfterShutdown(t *testing.T) {
	f := newTestFleet(t, Config{Replicas: 2, Instance: serve.Config{Side: 8}})
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := f.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Get(srv.URL + "/search?key=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown /search → %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("post-shutdown /search carries no Retry-After")
	}
	hresp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	body, _ := io.ReadAll(hresp.Body)
	if hresp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "lame-duck") {
		t.Fatalf("post-shutdown /healthz → %d %s", hresp.StatusCode, body)
	}
	if hresp.Header.Get("Retry-After") == "" {
		t.Fatal("post-shutdown /healthz carries no Retry-After")
	}
}

// gateInjector injects a lying comparator into every sort while broken —
// a switchable mesh failure for driving a replica's circuit breaker through
// its transitions.
type gateInjector struct{ broken atomic.Bool }

func (g *gateInjector) SortLie(_ string, items int) int64 {
	if g.broken.Load() && items >= 2 {
		return 1
	}
	return 0
}
func (g *gateInjector) CorruptCell(string, int) (int, int, bool) { return 0, 0, false }
func (g *gateInjector) DropReply(int) (int, bool)                { return 0, false }
func (g *gateInjector) DuplicateReply(int) (int, int, bool)      { return 0, 0, false }

// TestFleetHealthzFollowsReplicaBreaker drives a fleet of one through its
// replica's breaker cycle over HTTP: /healthz flips 200 → 503 (with a
// Retry-After) when the mesh breaks and the circuit opens, /search keeps
// answering correctly from the oracle rung meanwhile, and a canary closes
// the circuit once the mesh heals, flipping /healthz back to 200.
func TestFleetHealthzFollowsReplicaBreaker(t *testing.T) {
	g := &gateInjector{}
	f := newTestFleet(t, Config{
		Instance: serve.Config{
			Side: 8, Audit: true,
			MaxRetries: -1, BreakerWindow: 4,
			CanaryInterval: 2 * time.Millisecond,
			RetryBackoff:   10 * time.Microsecond,
		},
		MakeInjector: func(int) mesh.Injector { return g },
	})
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()
	get := func(path string) (int, http.Header, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, resp.Header, string(body)
	}
	search := func(key int64) Result {
		t.Helper()
		code, _, body := get(fmt.Sprintf("/search?key=%d", key))
		var res Result
		if code != http.StatusOK {
			t.Fatalf("/search?key=%d → %d %s", key, code, body)
		}
		if err := json.Unmarshal([]byte(body), &res); err != nil {
			t.Fatalf("bad /search body %q: %v", body, err)
		}
		checkAnswer(t, f, key, res)
		return res
	}

	if res := search(3); res.Degraded {
		t.Fatalf("healthy mesh answered from the oracle: %+v", res)
	}
	if code, _, body := get("/healthz"); code != 200 || !strings.Contains(body, "healthy") {
		t.Fatalf("/healthz while healthy → %d %s", code, body)
	}

	// Break the mesh: the round fails terminally (no retries), the replica's
	// circuit opens, and the lookup is answered by the fleet oracle.
	g.broken.Store(true)
	if res := search(5); !res.Degraded || res.Replica != -1 {
		t.Fatalf("broken-mesh lookup not an oracle answer: %+v", res)
	}
	code, hdr, body := get("/healthz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "degraded") {
		t.Fatalf("/healthz with the circuit open → %d %s", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("503 /healthz carries no Retry-After")
	}

	// Heal the mesh; a canary must close the circuit without traffic.
	g.broken.Store(false)
	deadline := time.Now().Add(5 * time.Second)
	for f.Health() != serve.Healthy {
		if time.Now().After(deadline) {
			t.Fatalf("circuit never closed: %+v", f.Stats().Agg)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if code, _, body := get("/healthz"); code != 200 {
		t.Fatalf("/healthz after recovery → %d %s", code, body)
	}
	if res := search(3); res.Degraded {
		t.Fatalf("post-recovery lookup not mesh-served: %+v", res)
	}
	if agg := f.Stats().Agg; agg.CircuitOpens == 0 || agg.CircuitCloses == 0 {
		t.Fatalf("missing circuit transitions: %+v", agg)
	}
}

// TestMetricsScrapeContract pins what the external scrapers read from a
// fleet of one: loadgen.HTTPTarget and perfbench decode "serve", "max_batch",
// "side" and "keys" from the JSON document, and perfbench parses
// meshserve_stage_duration_seconds_{sum,count}{stage="…"} from the
// Prometheus one. Every meshserve_* family a standalone instance exported
// before the fleet became the only HTTP surface must still be there, each
// TYPE'd exactly once.
func TestMetricsScrapeContract(t *testing.T) {
	f := newTestFleet(t, Config{
		Instance: serve.Config{Side: 8, Linger: 100 * time.Microsecond},
		Obs:      obs.New(obs.Config{}),
	})
	for key := int64(1); key <= 5; key++ {
		res, err := f.Lookup(context.Background(), key)
		if err != nil {
			t.Fatal(err)
		}
		checkAnswer(t, f, key, res)
	}
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()
	get := func(path string) string {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s → %d %s", path, resp.StatusCode, body)
		}
		return string(body)
	}

	var doc struct {
		Serve    serve.Stats `json:"serve"`
		MaxBatch int         `json:"max_batch"`
		Side     int         `json:"side"`
		Keys     int         `json:"keys"`
	}
	if err := json.Unmarshal([]byte(get("/metrics")), &doc); err != nil {
		t.Fatalf("bad /metrics body: %v", err)
	}
	if doc.Serve.Latency.Count != 5 || doc.Serve.Served != 5 || doc.Serve.Rounds == 0 {
		t.Fatalf("serve document: %+v", doc.Serve)
	}
	if doc.MaxBatch <= 0 || doc.Side != 8 || doc.Keys != len(f.Tree().Keys) {
		t.Fatalf("shape fields: max_batch %d side %d keys %d", doc.MaxBatch, doc.Side, doc.Keys)
	}

	prom := get("/metrics?format=prometheus")
	typed := map[string]int{}
	stages := map[string]bool{}
	for _, line := range strings.Split(prom, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			typed[strings.Fields(rest)[0]]++
			continue
		}
		for _, field := range []string{"sum", "count"} {
			if rest, ok := strings.CutPrefix(line, "meshserve_stage_duration_seconds_"+field+`{stage="`); ok {
				name, _, _ := strings.Cut(rest, `"}`)
				stages[name] = true
			}
		}
	}
	for _, name := range obs.StageNames() {
		if !stages[name] {
			t.Errorf("no meshserve_stage_duration_seconds sum/count for stage %q", name)
		}
	}
	for _, fam := range []string{
		"meshserve_lookups_total", "meshserve_answers_total", "meshserve_rounds_total",
		"meshserve_sim_steps_total", "meshserve_retries_total", "meshserve_budget_shed_total",
		"meshserve_recovered_rounds_total", "meshserve_faults_total",
		"meshserve_circuit_transitions_total", "meshserve_health_state",
		"meshserve_circuit_open", "meshserve_queue_depth", "meshserve_queue_capacity",
		"meshserve_kind_served_total", "meshserve_kind_degraded_total",
		"meshserve_kind_rounds_total", "meshserve_kind_sim_steps_total",
		"meshserve_kind_request_duration_seconds", "meshserve_request_duration_seconds",
		"meshserve_stage_duration_seconds", "meshserve_requests_total",
		"meshserve_traces_abandoned_total", "meshserve_slo_p99_target_seconds",
		"meshserve_slo_degraded_burn_rate", "meshserve_slo_latency_burn_rate",
	} {
		if typed[fam] != 1 {
			t.Errorf("family %s TYPE'd %d times, want 1", fam, typed[fam])
		}
	}
	for fam, n := range typed {
		if n != 1 {
			t.Errorf("family %s TYPE'd %d times", fam, n)
		}
	}
	if !strings.Contains(prom, `meshserve_lookups_total{result="accepted"} 5`) ||
		!strings.Contains(prom, `meshserve_kind_served_total{kind="membership"} 5`) {
		t.Errorf("serving counters do not sum the replica's lookups:\n%s", prom)
	}
}
