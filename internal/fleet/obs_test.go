package fleet

import (
	"context"
	"testing"
	"time"

	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/trace"
)

// TestFailoverTraceCarriesHopAndRun is the PR's acceptance pin: a failed-over
// lookup's trace must show the failover hop as a wall-clock span, the stage
// marks from BOTH replicas on one record, the serving replica index, and the
// cross-link to the step-clock run that finally answered — all partitioning
// the end-to-end latency exactly.
func TestFailoverTraceCarriesHopAndRun(t *testing.T) {
	o := obs.New(obs.Config{})
	f := newTestFleet(t, Config{
		Replicas: 2,
		Policy:   LeastLoaded(), // ties break to replica 0, the broken one
		Obs:      o,
		Instance: serve.Config{
			Side: 8, Audit: true, MaxRetries: -1,
			Linger: 100 * time.Microsecond, RetryBackoff: 10 * time.Microsecond,
		},
		MakeInjector: func(i int) mesh.Injector {
			if i == 0 {
				return brokenInjector{}
			}
			return nil
		},
		MakeTracer: func(int) *trace.Tracer { return trace.New() },
	})
	res, err := f.Lookup(context.Background(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Replica != 1 || res.Degraded {
		t.Fatalf("want a failover mesh answer from replica 1, got %+v", res)
	}

	var tr *obs.ReqTrace
	for _, cand := range o.Traces() {
		if cand.Outcome == obs.OutcomeFailover {
			tr = cand
			break
		}
	}
	if tr == nil {
		t.Fatal("no failover-outcome trace retained")
	}
	if !tr.HasStage(obs.StageFailover) {
		t.Fatalf("failover trace has no failover_hop span: %+v", tr.Spans)
	}
	if !tr.HasStage(obs.StageMesh) || !tr.HasStage(obs.StageAdmit) {
		t.Fatalf("failover trace lacks per-replica stages: %+v", tr.Spans)
	}
	if tr.Replica != 1 {
		t.Errorf("trace replica %d, want 1", tr.Replica)
	}
	if tr.RunSeq <= 0 || tr.RunLabel == "" {
		t.Errorf("failover trace not linked to the answering step-clock run: seq=%d label=%q",
			tr.RunSeq, tr.RunLabel)
	}
	// Partition invariant across the replica hop.
	if tr.Spans[0].Start != 0 {
		t.Errorf("first span starts at %s", tr.Spans[0].Start)
	}
	var sum time.Duration
	for i, sp := range tr.Spans {
		if i > 0 && sp.Start != tr.Spans[i-1].End {
			t.Errorf("span %d (%s): gap/overlap", i, sp.Stage)
		}
		sum += sp.Dur()
	}
	if sum != tr.Dur() {
		t.Errorf("spans sum to %s, e2e %s", sum, tr.Dur())
	}
	if got := o.Find(tr.ID); got != tr {
		t.Error("failover trace not retrievable by ID")
	}
}

// TestFleetOracleTraceMarksLastRung: with every replica down, the trace must
// record the fleet-oracle rung — oracle_fallback span, replica -1, outcome
// oracle — and stay retrievable (oracle answers are always interesting).
func TestFleetOracleTraceMarksLastRung(t *testing.T) {
	o := obs.New(obs.Config{})
	f := newTestFleet(t, Config{
		Replicas: 2,
		Obs:      o,
		Instance: serve.Config{Side: 8, Linger: 100 * time.Microsecond},
	})
	for i := 0; i < 2; i++ {
		if err := f.CrashReplica(i); err != nil {
			t.Fatal(err)
		}
	}
	res, err := f.Lookup(context.Background(), 7)
	if err != nil || !res.Degraded || res.Replica != -1 {
		t.Fatalf("all-down lookup: res=%+v err=%v, want degraded oracle answer", res, err)
	}
	if got := o.OutcomeCount(obs.OutcomeOracle); got != 1 {
		t.Fatalf("oracle outcomes %d, want 1", got)
	}
	var tr *obs.ReqTrace
	for _, cand := range o.Traces() {
		if cand.Outcome == obs.OutcomeOracle {
			tr = cand
		}
	}
	if tr == nil {
		t.Fatal("oracle trace not retained")
	}
	if !tr.HasStage(obs.StageOracle) || tr.Replica != -1 {
		t.Fatalf("oracle trace: stages=%+v replica=%d", tr.Spans, tr.Replica)
	}
}

// TestRetryAfterHintNoHealthyReplicas (satellite 2) pins the fallback ladder
// of the fleet's backpressure hint, including the previously undefined
// zero-routable-replicas case:
//
//	healthy replicas exist  → min over healthy instance hints
//	only degraded replicas  → min over degraded instance hints, each at
//	                          least one probe interval (a circuit closes
//	                          only on the prober's next canary)
//	no routable replica     → RestartBoundHint
func TestRetryAfterHintNoHealthyReplicas(t *testing.T) {
	const linger = 2 * time.Millisecond
	const probeEvery = 20 * time.Millisecond
	f := newTestFleet(t, Config{
		Replicas: 2,
		Instance: serve.Config{
			Side: 8, Linger: linger, Audit: true, MaxRetries: -1,
			RetryBackoff: 10 * time.Microsecond,
		},
		// The broken replica's mesh always lies, so no canary can close
		// its circuit and flip it back to healthy mid-assertion.
		ProbeInterval: probeEvery,
		MakeInjector: func(i int) mesh.Injector {
			if i == 0 {
				return brokenInjector{}
			}
			return nil
		},
	})

	// All replicas healthy and idle: the hint is one linger period — the
	// soonest any replica's next round could admit the retry.
	if got := f.RetryAfterHint(); got != linger {
		t.Fatalf("healthy hint %s, want %s", got, linger)
	}

	// Break replica 0's mesh: one terminal fault opens its circuit, making
	// it Degraded but still routable (the lookup surfaces the typed fault).
	// The fleet hint must keep preferring the healthy replica 1.
	inst0 := f.instance(0)
	if _, err := inst0.Lookup(context.Background(), 7); err == nil {
		t.Fatal("broken replica answered; want a typed fault")
	}
	if h := inst0.Health(); h != serve.Degraded {
		t.Fatalf("replica 0 health %s after terminal fault, want degraded", h)
	}
	if got := f.RetryAfterHint(); got != linger {
		t.Fatalf("hint with one degraded replica %s, want healthy replica's %s", got, linger)
	}

	// Crash the healthy replica: only the degraded one remains routable, so
	// its probe-bound hint is the answer — still not the restart bound.
	if err := f.CrashReplica(1); err != nil {
		t.Fatal(err)
	}
	want := max(inst0.RetryAfterHint(), probeEvery)
	if got := f.RetryAfterHint(); got != want {
		t.Fatalf("degraded-only hint %s, want replica 0's own %s", got, want)
	}
	if got := f.RetryAfterHint(); got == RestartBoundHint {
		t.Fatal("degraded-only fleet must not report the restart bound")
	}

	// No routable replica at all: the hint is the pinned restart bound —
	// a fixed pessimistic constant, not zero and not garbage.
	if err := f.CrashReplica(0); err != nil {
		t.Fatal(err)
	}
	if got := f.RetryAfterHint(); got != RestartBoundHint {
		t.Fatalf("zero-replica hint %s, want RestartBoundHint %s", got, RestartBoundHint)
	}
	if RestartBoundHint <= 0 {
		t.Fatal("RestartBoundHint must be positive")
	}
}
