package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// CheckTracePartition asserts the §3.9 span-partition invariant on one
// finished trace: contiguous spans, first at 0, summing exactly to the
// end-to-end duration. Exported (test builds only) for serve_test.
func CheckTracePartition(t *testing.T, tr *obs.ReqTrace) {
	t.Helper()
	if len(tr.Spans) == 0 {
		t.Errorf("trace %s finished with no spans", tr.ID)
		return
	}
	if tr.Spans[0].Start != 0 {
		t.Errorf("trace %s: first span starts at %s", tr.ID, tr.Spans[0].Start)
	}
	var sum time.Duration
	for i, sp := range tr.Spans {
		if sp.End < sp.Start {
			t.Errorf("trace %s span %d (%s): negative", tr.ID, i, sp.Stage)
		}
		if i > 0 && sp.Start != tr.Spans[i-1].End {
			t.Errorf("trace %s span %d (%s): gap/overlap at %s vs %s",
				tr.ID, i, sp.Stage, sp.Start, tr.Spans[i-1].End)
		}
		sum += sp.Dur()
	}
	if sum != tr.Dur() {
		t.Errorf("trace %s: spans sum to %s, e2e %s (outcome %s)", tr.ID, sum, tr.Dur(), tr.Outcome)
	}
}

// TestStagePartitionUnderConcurrentLoad is satellite proof for the tentpole
// invariant: under real concurrency — contended admission, batching, the
// full pipeline — every finished trace's spans still partition its latency
// exactly, carry the expected lifecycle stages, and link a step-clock run.
func TestStagePartitionUnderConcurrentLoad(t *testing.T) {
	o := obs.New(obs.Config{Ring: 2048})
	s := newTestServer(t, Config{Side: 8, Linger: 200 * time.Microsecond, Obs: o, Tracer: trace.New()})
	const clients, perClient = 12, 15
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				needle := int64((c*perClient + i) % 40)
				for {
					if _, err := s.Lookup(context.Background(), needle); !errors.Is(err, ErrOverloaded) {
						if err != nil {
							t.Errorf("lookup %d: %v", needle, err)
						}
						break
					}
					time.Sleep(time.Millisecond)
				}
			}
		}()
	}
	wg.Wait()

	if got := o.OutcomeCount(obs.OutcomeMesh); got != clients*perClient {
		t.Fatalf("mesh outcomes %d, want %d", got, clients*perClient)
	}
	traces := o.Traces()
	if len(traces) == 0 {
		t.Fatal("no traces retained")
	}
	for _, tr := range traces {
		CheckTracePartition(t, tr)
		for _, st := range []obs.Stage{obs.StageAdmit, obs.StageQueue, obs.StageLinger, obs.StageMesh, obs.StageDeliver} {
			if !tr.HasStage(st) {
				t.Errorf("trace %s (outcome %s) lacks stage %s: %+v", tr.ID, tr.Outcome, st, tr.Spans)
			}
		}
		if tr.HasStage(obs.StageFailover) || tr.HasStage(obs.StageOracle) {
			t.Errorf("healthy single-instance trace %s grew fleet/oracle spans", tr.ID)
		}
		if tr.RunSeq <= 0 || tr.RunLabel == "" {
			t.Errorf("trace %s not linked to a step-clock run: seq=%d label=%q", tr.ID, tr.RunSeq, tr.RunLabel)
		}
		if tr.Attempts != 1 {
			t.Errorf("healthy trace %s took %d attempts", tr.ID, tr.Attempts)
		}
		if tr.Replica != -2 {
			t.Errorf("bare-instance trace %s has replica %d, want unset", tr.ID, tr.Replica)
		}
	}
}

// TestLookupAbandonedNotRetained pins the Abandon rule: a client that gives
// up mid-flight increments the abandoned counter, and its trace never enters
// the ring (the pipeline may still be writing to it).
func TestLookupAbandonedNotRetained(t *testing.T) {
	o := obs.New(obs.Config{})
	g := newStallInjector()
	s := newTestServer(t, Config{Side: 8, Injector: g, Obs: o, Linger: time.Millisecond})
	g.armed.Store(true)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := s.Lookup(ctx, 1)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled lookup returned %v, want deadline exceeded", err)
	}
	if o.Abandoned() != 1 {
		t.Fatalf("abandoned count %d, want 1", o.Abandoned())
	}
	for _, tr := range o.Traces() {
		if tr.Needle == 1 && tr.Outcome == obs.OutcomeMesh {
			t.Fatal("abandoned trace retained while pipeline still owned it")
		}
	}
	g.armed.Store(false)
	close(g.release)
}

// BenchmarkLookupObsOff/On measure the tracing overhead on the full serving
// path (EXPERIMENTS.md E24). With Obs nil the per-request cost is pointer
// checks only; run with -benchmem to compare allocations.
func BenchmarkLookupObsOff(b *testing.B) { benchLookup(b, nil) }
func BenchmarkLookupObsOn(b *testing.B) {
	benchLookup(b, obs.New(obs.Config{}))
}

func benchLookup(b *testing.B, o *obs.Observer) {
	s, err := New(Config{Side: 8, Obs: o})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Lookup(ctx, int64(i%40)); err != nil {
			b.Fatal(err)
		}
	}
}
