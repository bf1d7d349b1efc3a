package fleet

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/mesh"
	"repro/internal/serve"
)

// TestOpenCircuitBatchesRideNoRound pins the round bookkeeping on a fleet
// of one: once the replica's circuit is open (and a long probe interval
// keeps it open), its batches fail fast with serve.ErrCircuitOpen and the
// fleet oracle answers them, so K more lookups leave Rounds, RoundQueries
// and SimSteps unchanged — and the per-round gauges (queries_per_round,
// sim_steps_per_round, meshserve_rounds_total{kind="mesh"}) still describe
// only the batches that reached the mesh.
func TestOpenCircuitBatchesRideNoRound(t *testing.T) {
	g := &gateInjector{}
	f := newTestFleet(t, Config{
		Instance: serve.Config{
			Side: 8, Audit: true, MaxRetries: -1,
			RetryBackoff: 10 * time.Microsecond,
		},
		MakeInjector:  func(int) mesh.Injector { return g },
		ProbeInterval: time.Hour,
	})
	lookup := func(needle int64, wantDegraded bool) {
		t.Helper()
		res, err := f.Lookup(context.Background(), needle)
		if err != nil || res.Degraded != wantDegraded {
			t.Fatalf("lookup %d: res=%+v err=%v, want degraded=%v", needle, res, err, wantDegraded)
		}
		checkAnswer(t, f, needle, res)
	}
	const healthy = 3
	for i := int64(0); i < healthy; i++ {
		lookup(2*i+1, false)
	}
	g.broken.Store(true)
	lookup(5, true) // one round, failed terminally: the circuit opens
	if h := f.Stats().PerReplica[0].Health; h != serve.Degraded.String() {
		t.Fatalf("replica health %s after a terminal fault, want degraded", h)
	}
	before := f.Stats().Agg
	if before.Rounds != healthy+1 || before.RoundQueries != healthy+1 {
		t.Fatalf("before the open-circuit lookups: %d rounds carrying %d queries, want %d each",
			before.Rounds, before.RoundQueries, healthy+1)
	}

	const k = 12
	for i := int64(0); i < k; i++ {
		lookup(i, true)
	}
	after := f.Stats().Agg
	if after.Rounds != before.Rounds || after.RoundQueries != before.RoundQueries || after.SimSteps != before.SimSteps {
		t.Fatalf("%d fast-failed lookups moved the round counters: rounds %d → %d, round queries %d → %d, steps %d → %d",
			k, before.Rounds, after.Rounds, before.RoundQueries, after.RoundQueries, before.SimSteps, after.SimSteps)
	}
	if after.Failed != before.Failed+k || after.Degraded != before.Degraded+k {
		t.Fatalf("fast-fails not counted as failed + oracle-answered: before %+v after %+v", before, after)
	}
	for _, ks := range after.Kinds {
		if ks.Kind == serve.KindMembership.String() && ks.Rounds != after.Rounds {
			t.Fatalf("membership kind rounds %d, want %d", ks.Rounds, after.Rounds)
		}
	}

	srv := httptest.NewServer(f.Handler())
	defer srv.Close()
	get := func(path string) *http.Response {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	resp := get("/metrics")
	var doc map[string]any
	err := json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if qpr := doc["queries_per_round"]; qpr != 1.0 {
		t.Fatalf("queries_per_round = %v, want 1 (one sequential lookup per round)", qpr)
	}
	if spr, want := doc["sim_steps_per_round"], float64(after.SimSteps)/float64(healthy+1); spr != want {
		t.Fatalf("sim_steps_per_round = %v, want %v (steps over the %d rounds that ran)", spr, want, healthy+1)
	}
	resp = get("/metrics?format=prometheus")
	prom, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`meshserve_rounds_total{kind="mesh"} 4`, `meshserve_answers_total{path="oracle"} 13`} {
		if !strings.Contains(string(prom), want) {
			t.Fatalf("exposition lacks %q", want)
		}
	}
}

// TestProbeBookkeepingConserved pins the prober's ledger. Replicas 0 and 1
// break and open their circuits, the prober's canaries fail on both, then
// replica 0 heals and a canary closes its circuit while replica 1 stays
// broken; replica 2 is manually ejected, so the prober also sends it timed
// lookups. Once the fleet is quiet (prober stopped, no lookup in flight):
//
//   - every canary either failed or closed a circuit:
//     CanaryRounds == CanaryFails + CircuitCloses;
//   - CircuitOpens − CircuitCloses is the number of live replicas whose
//     circuit is open;
//   - EjectProbes counts only the lookups sent to the ejected replica —
//     never a canary — and the replica that was only ever ejected ran none.
func TestProbeBookkeepingConserved(t *testing.T) {
	gates := []*gateInjector{{}, {}, {}}
	f := newTestFleet(t, Config{
		Replicas: 3,
		Instance: serve.Config{
			Side: 8, Audit: true, MaxRetries: -1,
			Linger: 100 * time.Microsecond, RetryBackoff: 10 * time.Microsecond,
		},
		MakeInjector: func(i int) mesh.Injector { return gates[i] },
		// A sample floor no probe reaches: replica 2 stays ejected, so the
		// prober keeps sending it lookups until the test stops it.
		Eject:         EjectConfig{Enabled: true, MinSamples: 1 << 30, ProbeTimeout: 10 * time.Second},
		ProbeInterval: time.Millisecond,
	})
	if err := f.EjectReplica(2); err != nil {
		t.Fatal(err)
	}
	health := func(i int) string { return f.Stats().PerReplica[i].Health }
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s: %+v", what, f.Stats())
			}
			time.Sleep(time.Millisecond)
		}
	}

	gates[0].broken.Store(true)
	gates[1].broken.Store(true)
	for needle := int64(0); health(0) != "degraded" || health(1) != "degraded"; needle++ {
		res, err := f.Lookup(context.Background(), needle)
		if err != nil {
			t.Fatalf("lookup %d: %v", needle, err)
		}
		checkAnswer(t, f, needle, res)
		if needle > 1000 {
			t.Fatalf("breakers never opened: %+v", f.Stats())
		}
	}
	waitFor("failed canaries on both broken replicas", func() bool {
		st := f.Stats()
		return st.PerReplica[0].Serve.CanaryFails > 0 && st.PerReplica[1].Serve.CanaryFails > 0 && st.EjectProbes > 0
	})
	gates[0].broken.Store(false)
	waitFor("a canary to close replica 0's circuit", func() bool { return health(0) == "healthy" })

	// Quiesce: stop the prober (Shutdown's own first step) and read the
	// ledger with the replicas still live.
	f.probeOnce.Do(func() { close(f.probeStop) })
	<-f.probeDone
	st := f.Stats()
	agg := st.Agg
	if agg.CanaryRounds != agg.CanaryFails+agg.CircuitCloses {
		t.Errorf("canary rounds %d != fails %d + closes %d", agg.CanaryRounds, agg.CanaryFails, agg.CircuitCloses)
	}
	if open := agg.CircuitOpens - agg.CircuitCloses; open != int64(st.DegradedReplicas) || open != 1 {
		t.Errorf("opens %d − closes %d = %d, but %d live replicas have an open circuit (want 1)",
			agg.CircuitOpens, agg.CircuitCloses, open, st.DegradedReplicas)
	}
	ejected := st.PerReplica[2].Serve
	if ejected.CanaryRounds != 0 || ejected.CircuitOpens != 0 {
		t.Errorf("the ejected replica ran canaries: %+v", ejected)
	}
	if st.EjectProbes == 0 || st.EjectProbes > ejected.Accepted {
		t.Errorf("eject probes %d, but the ejected replica admitted %d lookups", st.EjectProbes, ejected.Accepted)
	}
	if agg.CanaryRounds == 0 || agg.CanaryFails == 0 || agg.CircuitCloses == 0 {
		t.Errorf("the scenario exercised too little: %+v", agg)
	}
}
