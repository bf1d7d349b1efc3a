package serve_test

// The recovery ladder past the instance's own rungs: an instance retries,
// then surfaces the typed fault and opens its breaker; the fleet fails the
// lookup over, answers from its oracle, and its prober closes the circuit
// again (DESIGN.md §3.6, §3.8). These tests drive that ladder end to end on
// a fleet of one, the shape every production path serves through.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/trace"
)

// TestBudgetOverrunDegradesToOracle is the graceful-degradation contract: a
// deterministic fault (per-round budget too small for any round) is never
// user-visible — the lookup is answered by the fleet's host oracle, flagged
// degraded, and the replica's circuit opens.
func TestBudgetOverrunDegradesToOracle(t *testing.T) {
	f := newFleetOfOne(t, fleet.Config{Instance: serve.Config{Budget: 3}, ProbeInterval: time.Hour})
	res, err := f.Lookup(context.Background(), 3)
	if err != nil {
		t.Fatalf("lookup under recovery returned error %v; want degraded answer", err)
	}
	if !res.Degraded || res.Replica != -1 {
		t.Fatalf("result not a degraded oracle answer: %+v", res)
	}
	if want := f.Tree().Contains(3); res.Found != want {
		t.Fatalf("degraded answer wrong: found=%v want %v", res.Found, want)
	}
	leaf, _, path := f.Tree().HostLookup(3)
	if res.LeafKey != leaf || res.Steps != path {
		t.Fatalf("degraded answer provenance wrong: %+v (want leaf %d, path %d)", res, leaf, path)
	}
	if f.Health() != serve.Degraded {
		t.Fatalf("terminal round failure left health %v, want %v", f.Health(), serve.Degraded)
	}
	// The open circuit fails the next batch fast — no mesh round — and the
	// oracle still answers it correctly.
	res2, err := f.Lookup(context.Background(), 4)
	if err != nil || !res2.Degraded || res2.Found != f.Tree().Contains(4) {
		t.Fatalf("open-circuit lookup: res=%+v err=%v", res2, err)
	}
	st := f.Stats()
	agg := st.Agg
	if st.OracleServed != 2 || agg.Degraded != 2 || agg.Served != 0 {
		t.Fatalf("degraded accounting wrong: %+v", st)
	}
	if agg.Rounds != 1 || agg.Failed != 2 {
		t.Fatalf("want one round (the overrun) and two typed failures, got %+v", agg)
	}
	if agg.FaultsBudget == 0 || agg.CircuitOpens != 1 {
		t.Fatalf("breaker accounting wrong: %+v", agg)
	}
	if agg.Health != "degraded" {
		t.Fatalf("stats health %q, want degraded", agg.Health)
	}
}

// TestCircuitBreakerOpensAndCanaryCloses drives the full health cycle:
// healthy → (mesh breaks) degraded with oracle answers → (mesh heals) the
// fleet prober's audited canary closes the circuit → healthy mesh serving
// again, with the retry hint stretching to the probe interval while the
// circuit is open. (The /healthz side of the cycle is pinned by fleet's
// TestFleetHealthzFollowsReplicaBreaker.)
func TestCircuitBreakerOpensAndCanaryCloses(t *testing.T) {
	const probeEvery = 2 * time.Millisecond
	g := &serve.GateInjector{}
	f := newFleetOfOne(t, fleet.Config{
		Instance: serve.Config{
			Audit: true, Injector: g,
			MaxRetries: -1, BreakerWindow: 4,
			RetryBackoff: 10 * time.Microsecond,
		},
		ProbeInterval: probeEvery,
	})
	replicaHealth := func() string { return f.Stats().PerReplica[0].Health }
	lookup := func(needle int64) fleet.Result {
		t.Helper()
		res, err := f.Lookup(context.Background(), needle)
		if err != nil || res.Found != f.Tree().Contains(needle) {
			t.Fatalf("lookup %d: res=%+v err=%v", needle, res, err)
		}
		return res
	}

	// Phase 1: healthy mesh serving.
	if res := lookup(3); res.Degraded {
		t.Fatalf("healthy lookup answered from the oracle: %+v", res)
	}
	if h := replicaHealth(); h != "healthy" {
		t.Fatalf("health %s while the mesh works, want healthy", h)
	}
	if hint := f.RetryAfterHint(); hint <= 0 || hint >= probeEvery {
		t.Fatalf("healthy retry hint %v, want one fill window (below the %v probe interval)", hint, probeEvery)
	}

	// Phase 2: break the mesh. The next round fails terminally (no
	// retries), the circuit opens, and the fleet oracle answers.
	g.Broken.Store(true)
	if res := lookup(5); !res.Degraded {
		t.Fatalf("broken-mesh lookup not an oracle answer: %+v", res)
	}
	if h := replicaHealth(); h != "degraded" {
		t.Fatalf("health %s after terminal failure, want degraded", h)
	}
	if hint := f.RetryAfterHint(); hint < probeEvery {
		t.Fatalf("open-circuit retry hint %v, want at least the %v probe interval", hint, probeEvery)
	}
	// Let at least one canary probe the still-broken mesh and fail.
	deadline := time.Now().Add(5 * time.Second)
	for f.Stats().Agg.CanaryFails == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no canary probed the broken mesh: %+v", f.Stats().Agg)
		}
		time.Sleep(time.Millisecond)
	}
	lookup(7)

	// Phase 3: heal the mesh; a canary must close the circuit without any
	// help from traffic.
	g.Broken.Store(false)
	for f.Health() != serve.Healthy {
		if time.Now().After(deadline) {
			t.Fatalf("circuit never closed: %+v", f.Stats().Agg)
		}
		time.Sleep(time.Millisecond)
	}
	if res := lookup(3); res.Degraded {
		t.Fatalf("post-recovery lookup not mesh-served: %+v", res)
	}
	st := f.Stats()
	if st.Agg.CircuitOpens == 0 || st.Agg.CircuitCloses == 0 {
		t.Fatalf("missing circuit transitions: %+v", st.Agg)
	}
	if st.Agg.CanaryRounds == 0 || st.Agg.CanaryFails == 0 {
		t.Fatalf("canary accounting wrong (want ≥1 probe and ≥1 failed probe): %+v", st.Agg)
	}
	if answered := st.FirstPickServed + st.OracleServed; answered != st.Dispatched {
		t.Fatalf("user-visible failures across the whole cycle: %d dispatched, %d answered", st.Dispatched, answered)
	}
}

// TestStagePartitionUnderChaos drives the recovery ladder — audited faults,
// retries with backoff, the typed fault, the fleet oracle — and checks the
// partition invariant holds on every path, with the retry and oracle stages
// present exactly where the outcome says they must be.
func TestStagePartitionUnderChaos(t *testing.T) {
	o := obs.New(obs.Config{Ring: 1024})
	g := &serve.GateInjector{}
	f := newFleetOfOne(t, fleet.Config{
		Instance: serve.Config{
			Audit: true, Injector: g, Tracer: trace.New(),
			MaxRetries: 2, RetryBackoff: 10 * time.Microsecond,
			Linger: 100 * time.Microsecond,
		},
		Obs:           o,
		ProbeInterval: 2 * time.Millisecond,
	})

	lookupAll := func(n int) {
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					res, err := f.Lookup(context.Background(), int64(2*i+1))
					if errors.Is(err, serve.ErrOverloaded) {
						time.Sleep(time.Millisecond)
						continue
					}
					if err != nil {
						t.Errorf("lookup %d: %v", 2*i+1, err)
					} else if !res.Found {
						t.Errorf("lookup %d: odd key not found", 2*i+1)
					}
					return
				}
			}()
		}
		wg.Wait()
	}

	lookupAll(8) // healthy phase: mesh outcomes
	g.Broken.Store(true)
	lookupAll(8) // broken phase: retry ladder → typed fault → fleet oracle
	g.Broken.Store(false)
	// Wait for a canary to close the circuit so the last phase serves mesh.
	deadline := time.Now().Add(5 * time.Second)
	for f.Health() != serve.Healthy && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if f.Health() != serve.Healthy {
		t.Fatal("circuit never closed after faults cleared")
	}
	lookupAll(8) // recovered phase

	if o.OutcomeCount(obs.OutcomeOracle) == 0 {
		t.Fatal("broken phase produced no oracle outcomes")
	}
	if o.OutcomeCount(obs.OutcomeMesh) < 16 {
		t.Fatalf("healthy phases produced %d mesh outcomes, want ≥ 16", o.OutcomeCount(obs.OutcomeMesh))
	}
	sawRetriedOracle := false
	for _, tr := range o.Traces() {
		serve.CheckTracePartition(t, tr)
		switch tr.Outcome {
		case obs.OutcomeOracle:
			if !tr.HasStage(obs.StageOracle) {
				t.Errorf("oracle trace %s has no oracle_fallback span: %+v", tr.ID, tr.Spans)
			}
			// A batch that walked the retry ladder shows mesh/backoff/mesh…;
			// one failed fast on the already-open circuit has no attempts.
			if tr.Attempts > 0 {
				if tr.Attempts != 3 { // initial + MaxRetries, all faulting
					t.Errorf("oracle trace %s took %d attempts, want 3", tr.ID, tr.Attempts)
				}
				if !tr.HasStage(obs.StageBackoff) {
					t.Errorf("retried trace %s has no retry_backoff span", tr.ID)
				}
				sawRetriedOracle = true
			}
			if tr.RunSeq != 0 {
				t.Errorf("oracle trace %s links run %d; no round answered it", tr.ID, tr.RunSeq)
			}
		case obs.OutcomeMesh:
			if tr.HasStage(obs.StageOracle) {
				t.Errorf("mesh trace %s has an oracle span", tr.ID)
			}
			if tr.RunSeq <= 0 {
				t.Errorf("mesh trace %s not linked to its run", tr.ID)
			}
		}
		if n := countStage(tr, obs.StageMesh); n != tr.Attempts {
			t.Errorf("trace %s: %d mesh_round spans but %d attempts", tr.ID, n, tr.Attempts)
		}
	}
	if !sawRetriedOracle {
		t.Error("no oracle trace walked the full retry ladder (want mesh/backoff/mesh spans)")
	}
}

func countStage(tr *obs.ReqTrace, st obs.Stage) int {
	n := 0
	for _, sp := range tr.Spans {
		if sp.Stage == st {
			n++
		}
	}
	return n
}

// allExtraKinds is every non-membership kind (membership is always served).
var allExtraKinds = []serve.Kind{serve.KindPointLoc, serve.KindInterval, serve.KindLinePoly, serve.KindTangent}

// TestMixedKindsZeroWrongUnderChaos is the per-kind acceptance bar: with
// seeded fault injection and audit on, every kind's every answer must still
// agree with its host oracle — faults may slow kinds down (retries, the
// fleet's oracle rung) but never corrupt any family's answers.
func TestMixedKindsZeroWrongUnderChaos(t *testing.T) {
	inj := faults.New(faults.Config{Seed: 42, PSortLie: 0.05, PCorrupt: 0.05, PDrop: 0.05, PDup: 0.05})
	f := newFleetOfOne(t, fleet.Config{Instance: serve.Config{
		Linger: 300 * time.Microsecond, Kinds: allExtraKinds,
		Audit: true, Injector: inj,
	}})
	ss := f.Structures()
	var wg sync.WaitGroup
	errs := make(chan error, serve.NumKinds)
	for _, k := range f.Kinds() {
		k := k
		st := ss.Get(k)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(100); i < 130; i++ {
				args := st.ArgsFor(i)
				var res fleet.Result
				var err error
				for {
					res, err = f.LookupKind(context.Background(), k, args)
					if !errors.Is(err, serve.ErrOverloaded) {
						break
					}
					time.Sleep(time.Millisecond)
				}
				if err != nil {
					errs <- fmt.Errorf("%s lookup %v under chaos: %w", k, args, err)
					return
				}
				want := serve.HostAnswer(st, args)
				if res.Found != want.Found || res.Value != want.Value {
					errs <- fmt.Errorf("%s %v: wrong answer under chaos (found=%v value=%d, oracle found=%v value=%d, degraded=%v)",
						k, args, res.Found, res.Value, want.Found, want.Value, res.Degraded)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if inj.Count() == 0 {
		t.Fatal("chaos injected no faults; the test exercised nothing")
	}
}

// TestServedCountersConserved checks that the serving counters are exact at
// the moment the last lookup returns: every admitted lookup is either
// served by a mesh round or failed (Accepted == Served + Failed — retry-
// ladder budget sheds and circuit-open fast-fails are failures, admission
// sheds are never accepted), and the mesh-served, oracle-answered and
// failed counts match what the clients saw, in total and per kind. The
// counters are bumped before the replies are sent, so a returned lookup is
// already counted: each client also checks, right after every return, that
// Served+Failed covers every lookup returned so far — a reply that overtook
// its counter shows up there, since a round sends its whole batch before a
// late counter bump would land.
func TestServedCountersConserved(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  fleet.Config
	}{
		// Faults under audit: retries, recovered rounds, oracle answers.
		{"degrade", fleet.Config{Instance: serve.Config{
			Injector:   faults.New(faults.Config{Seed: 7, PSortLie: 0.002, PCorrupt: 0.002, PDrop: 0.002, PDup: 0.002}),
			MaxRetries: 1, RetryBackoff: 10 * time.Microsecond,
		}}},
		// No oracle rung: a round that exhausts its retries fails its batch.
		{"fail", fleet.Config{DisableOracle: true, Instance: serve.Config{
			Injector:   faults.New(faults.Config{Seed: 7, PSortLie: 0.004, PCorrupt: 0.004}),
			MaxRetries: 1, RetryBackoff: 10 * time.Microsecond,
		}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Instance.Side, cfg.Instance.Audit, cfg.Instance.Kinds = 8, true, allExtraKinds
			cfg.Instance.Linger = 200 * time.Microsecond
			f := newFleetOfOne(t, cfg)
			ss := f.Structures()
			kinds := f.Kinds()
			served := make([]int64, serve.NumKinds)
			degraded := make([]int64, serve.NumKinds)
			failed := make([]int64, serve.NumKinds)
			var (
				wg       sync.WaitGroup
				mu       sync.Mutex
				returned atomic.Int64
				early    atomic.Int64 // returns observed before their count
			)
			for _, k := range kinds {
				for c := 0; c < 3; c++ {
					k, c := k, c
					wg.Add(1)
					go func() {
						defer wg.Done()
						var ok, deg, bad int64
						for i := int64(0); i < 10; i++ {
							args := ss.Get(k).ArgsFor(int64(c)*10 + i)
							res, err := f.LookupKind(context.Background(), k, args)
							for errors.Is(err, serve.ErrOverloaded) {
								time.Sleep(100 * time.Microsecond)
								res, err = f.LookupKind(context.Background(), k, args)
							}
							n := returned.Add(1)
							if agg := f.Stats().Agg; agg.Served+agg.Failed < n {
								early.Add(1)
							}
							switch {
							case err != nil:
								bad++
							case res.Degraded:
								deg++
							default:
								ok++
							}
						}
						mu.Lock()
						served[k] += ok
						degraded[k] += deg
						failed[k] += bad
						mu.Unlock()
					}()
				}
			}
			wg.Wait()
			// Read the counters now, with no settling delay: every
			// lookup above has returned, so every one must be counted.
			st := f.Stats().Agg
			if e := early.Load(); e > 0 {
				t.Errorf("%d lookups returned before the counters included them", e)
			}
			if st.Accepted != st.Served+st.Failed {
				t.Errorf("accepted %d != served %d + failed %d", st.Accepted, st.Served, st.Failed)
			}
			var wantServed, wantDegraded, wantFailed int64
			for _, k := range kinds {
				wantServed += served[k]
				wantDegraded += degraded[k]
				wantFailed += failed[k]
			}
			// On a fleet of one every instance failure reaches the client:
			// as an oracle answer, or (DisableOracle) as the error itself.
			if st.Served != wantServed || st.Degraded != wantDegraded || st.Failed != wantDegraded+wantFailed {
				t.Errorf("counters served/degraded/failed = %d/%d/%d, clients saw %d mesh / %d oracle / %d failed",
					st.Served, st.Degraded, st.Failed, wantServed, wantDegraded, wantFailed)
			}
			for _, ks := range st.Kinds {
				k, err := serve.ParseKind(ks.Kind)
				if err != nil {
					t.Fatal(err)
				}
				if ks.Served != served[k] || ks.Degraded != degraded[k] {
					t.Errorf("%s: served/degraded = %d/%d, clients saw %d/%d",
						ks.Kind, ks.Served, ks.Degraded, served[k], degraded[k])
				}
			}
			t.Logf("accepted %d: mesh-served %d, failed %d (oracle-answered %d); retries %d",
				st.Accepted, st.Served, st.Failed, st.Degraded, st.Retries)
		})
	}
}
