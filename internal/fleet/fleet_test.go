package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mesh"
	"repro/internal/serve"
)

// newTestFleet builds a small fleet on the default odd-key dictionary and
// registers a bounded drain.
func newTestFleet(t *testing.T, cfg Config) *Fleet {
	t.Helper()
	if cfg.Instance.Side == 0 {
		cfg.Instance.Side = 8
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		_ = f.Shutdown(ctx)
	})
	return f
}

// checkAnswer fails the test on any answer that disagrees with the host
// oracle — the fleet's zero-wrong-answers bar.
func checkAnswer(t *testing.T, f *Fleet, needle int64, res Result) {
	t.Helper()
	if res.Found != f.Tree().Contains(needle) {
		t.Errorf("answer for %d disagrees with the host oracle: %+v", needle, res)
	}
	if res.Found && res.LeafKey != needle {
		t.Errorf("hit for %d landed on leaf %d", needle, res.LeafKey)
	}
}

// brokenInjector makes every sort lie, so every audited round on its
// instance fails terminally — a deterministically unhealthy replica.
type brokenInjector struct{}

func (brokenInjector) SortLie(_ string, items int) int64 {
	if items >= 2 {
		return 1
	}
	return 0
}
func (brokenInjector) CorruptCell(string, int) (int, int, bool) { return 0, 0, false }
func (brokenInjector) DropReply(int) (int, bool)                { return 0, false }
func (brokenInjector) DuplicateReply(int) (int, int, bool)      { return 0, 0, false }

// stallInjector wedges its instance's executor: once armed, the first
// consultation inside a round blocks until release is closed (injecting no
// faults), so admission backpressure can be driven deterministically.
type stallInjector struct {
	armed   atomic.Bool
	release chan struct{}
}

func newStallInjector() *stallInjector { return &stallInjector{release: make(chan struct{})} }

func (g *stallInjector) block() {
	if g.armed.Load() {
		<-g.release
	}
}
func (g *stallInjector) SortLie(string, int) int64                { g.block(); return 0 }
func (g *stallInjector) CorruptCell(string, int) (int, int, bool) { g.block(); return 0, 0, false }
func (g *stallInjector) DropReply(int) (int, bool)                { g.block(); return 0, false }
func (g *stallInjector) DuplicateReply(int) (int, int, bool)      { g.block(); return 0, 0, false }

// TestSingleReplicaFleetServesCorrectly pins the degenerate fleet: one
// replica behind the router answers exactly like a bare instance, with no
// failover or oracle involvement.
func TestSingleReplicaFleetServesCorrectly(t *testing.T) {
	f := newTestFleet(t, Config{Replicas: 1, Instance: serve.Config{Side: 8, Linger: 200 * time.Microsecond}})
	keys := int64(len(f.Tree().Keys))
	const n = 40
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		needle := int64(i) % (2 * keys)
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := f.Lookup(context.Background(), needle)
			if err != nil {
				t.Errorf("lookup %d: %v", needle, err)
				return
			}
			if res.Replica != 0 {
				t.Errorf("lookup %d served by replica %d in a 1-replica fleet", needle, res.Replica)
			}
			checkAnswer(t, f, needle, res)
		}()
	}
	wg.Wait()
	st := f.Stats()
	if st.Dispatched != n || st.FailoverServed != 0 || st.OracleServed != 0 || st.Unrouted != 0 {
		t.Fatalf("1-replica fleet counters: %+v", st)
	}
	if st.Agg.Served != n || st.Agg.Degraded != 0 {
		t.Fatalf("aggregate serving counters: %+v", st.Agg)
	}
}

// TestFailoverServesFromHealthyReplica is the tentpole contract: a lookup
// whose first pick lands on a faulting replica is re-dispatched to a healthy
// one and answered correctly — before any oracle degrade.
func TestFailoverServesFromHealthyReplica(t *testing.T) {
	f := newTestFleet(t, Config{
		Replicas: 2,
		Policy:   LeastLoaded(), // ties break to replica 0, the broken one
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
	})
	const n = 8
	for i := 0; i < n; i++ {
		needle := int64(2*i + 1)
		res, err := f.Lookup(context.Background(), needle)
		if err != nil {
			t.Fatalf("lookup %d: %v", needle, err)
		}
		if res.Replica != 1 {
			t.Fatalf("lookup %d served by replica %d, want failover to 1", needle, res.Replica)
		}
		if res.Degraded {
			t.Fatalf("lookup %d degraded; failover must beat the oracle rung", needle)
		}
		checkAnswer(t, f, needle, res)
	}
	st := f.Stats()
	if st.FailoverServed != n {
		t.Fatalf("%d of %d lookups failover-served: %+v", st.FailoverServed, n, st)
	}
	if st.OracleServed != 0 || st.Agg.Degraded != 0 {
		t.Fatalf("oracle answered despite a healthy replica: %+v", st)
	}
}

// TestHealthWeightedRoutesAroundDegradedReplica proves the router consumes
// breaker state: once the broken replica's circuit opens, health-weighted
// first picks go straight to the healthy replica and failover stops.
func TestHealthWeightedRoutesAroundDegradedReplica(t *testing.T) {
	f := newTestFleet(t, Config{
		Replicas: 2,
		Policy:   HealthWeighted(),
		Instance: serve.Config{
			Side: 8, Audit: true, MaxRetries: -1,
			Linger: 100 * time.Microsecond, RetryBackoff: 10 * time.Microsecond,
		},
		ProbeInterval: time.Hour, // keep the broken replica visibly degraded
		MakeInjector: func(i int) mesh.Injector {
			if i == 0 {
				return brokenInjector{}
			}
			return nil
		},
	})
	// Drive lookups until replica 0's terminal failure has opened its
	// circuit and the health machine shows it degraded.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if res, err := f.Lookup(context.Background(), 3); err != nil {
			t.Fatalf("lookup during breaker warm-up: %v", err)
		} else {
			checkAnswer(t, f, 3, res)
		}
		views := f.views()
		if views[0].Up && views[0].Health == serve.Degraded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica 0 never reported degraded: %+v", f.Stats())
		}
	}
	failoversBefore := f.Stats().Failovers
	const n = 10
	for i := 0; i < n; i++ {
		needle := int64(2 * i)
		res, err := f.Lookup(context.Background(), needle)
		if err != nil {
			t.Fatalf("lookup %d: %v", needle, err)
		}
		if res.Replica != 1 {
			t.Fatalf("lookup %d served by replica %d, want the healthy 1 first-pick", needle, res.Replica)
		}
		checkAnswer(t, f, needle, res)
	}
	if d := f.Stats().Failovers - failoversBefore; d != 0 {
		t.Fatalf("%d failovers after the breaker opened; health-weighted routing should avoid the degraded replica outright", d)
	}
}

// TestAllReplicasDownFallsBackToOracle pins the last ladder rung: with every
// replica crashed the fleet still answers — correctly, flagged Degraded,
// attributed to replica -1 — unless the oracle rung is disabled, in which
// case the typed routing failure surfaces.
func TestAllReplicasDownFallsBackToOracle(t *testing.T) {
	f := newTestFleet(t, Config{Replicas: 2, Instance: serve.Config{Side: 8, Linger: 100 * time.Microsecond}})
	for i := 0; i < 2; i++ {
		if err := f.CrashReplica(i); err != nil {
			t.Fatal(err)
		}
	}
	for _, needle := range []int64{0, 3, 7, 100} {
		res, err := f.Lookup(context.Background(), needle)
		if err != nil {
			t.Fatalf("oracle lookup %d: %v", needle, err)
		}
		if !res.Degraded || res.Replica != -1 {
			t.Fatalf("all-down lookup %d not attributed to the oracle: %+v", needle, res)
		}
		checkAnswer(t, f, needle, res)
	}
	if f.Health() != serve.Degraded {
		t.Fatalf("all-down fleet health %v, want %v", f.Health(), serve.Degraded)
	}
	st := f.Stats()
	if st.OracleServed != 4 || st.Unrouted != 4 || st.DownReplicas != 2 {
		t.Fatalf("oracle-path counters: %+v", st)
	}

	t.Run("DisableOracle surfaces the routing failure", func(t *testing.T) {
		f2 := newTestFleet(t, Config{
			Replicas: 1, DisableOracle: true,
			Instance: serve.Config{Side: 8, Linger: 100 * time.Microsecond},
		})
		if err := f2.CrashReplica(0); err != nil {
			t.Fatal(err)
		}
		if _, err := f2.Lookup(context.Background(), 3); !errors.Is(err, ErrNoReplica) {
			t.Fatalf("lookup error %v, want ErrNoReplica", err)
		}
	})
}

// TestCrashRestartLifecycle exercises the chaos primitives directly: crash
// bookkeeping, stats preservation across the crash, restart with measured
// time-to-healthy, and the error cases.
func TestCrashRestartLifecycle(t *testing.T) {
	f := newTestFleet(t, Config{Replicas: 2, Instance: serve.Config{Side: 8, Linger: 100 * time.Microsecond}})
	const warm = 10
	for i := 0; i < warm; i++ {
		if _, err := f.Lookup(context.Background(), int64(i)); err != nil {
			t.Fatalf("warm-up lookup: %v", err)
		}
	}
	if err := f.CrashReplica(0); err != nil {
		t.Fatal(err)
	}
	if err := f.CrashReplica(0); err == nil {
		t.Fatal("double crash accepted")
	}
	if err := f.RestartReplica(1); err == nil {
		t.Fatal("restart of an up replica accepted")
	}
	st := f.Stats()
	if st.Crashes != 1 || st.DownReplicas != 1 {
		t.Fatalf("post-crash counters: %+v", st)
	}
	// The crashed incarnation's serving counters survive in the aggregate.
	if st.Agg.Served != warm {
		t.Fatalf("aggregate lost crashed-replica history: served %d, want %d", st.Agg.Served, warm)
	}
	// The surviving replica keeps answering.
	res, err := f.Lookup(context.Background(), 3)
	if err != nil || res.Replica != 1 {
		t.Fatalf("lookup with one replica down: res=%+v err=%v", res, err)
	}
	checkAnswer(t, f, 3, res)

	if err := f.RestartReplica(0); err != nil {
		t.Fatal(err)
	}
	st = f.Stats()
	if st.Restarts != 1 || st.DownReplicas != 0 {
		t.Fatalf("post-restart counters: %+v", st)
	}
	if st.LastTimeToHealthy <= 0 || st.MaxTimeToHealthy < st.LastTimeToHealthy {
		t.Fatalf("time-to-healthy not recorded: %+v", st)
	}
	// The reborn replica serves (route to it directly: crash the other).
	if err := f.CrashReplica(1); err != nil {
		t.Fatal(err)
	}
	res, err = f.Lookup(context.Background(), 5)
	if err != nil || res.Replica != 0 {
		t.Fatalf("lookup on the restarted replica: res=%+v err=%v", res, err)
	}
	checkAnswer(t, f, 5, res)
}

// TestAllOverloadedIsBackpressureNotOracle wedges every replica's executor
// and fills their admission pipelines: the fleet must answer the overflow
// with ErrOverloaded — backpressure the client can retry — and the oracle
// must not absorb it (that would hide the saturation knee behind an
// unbounded pool of degraded answers).
func TestAllOverloadedIsBackpressureNotOracle(t *testing.T) {
	injs := make([]*stallInjector, 2)
	f := newTestFleet(t, Config{
		Replicas: 2,
		Instance: serve.Config{Side: 8, MaxBatch: 1, QueueDepth: 2, Linger: 0},
		MakeInjector: func(i int) mesh.Injector {
			injs[i] = newStallInjector()
			return injs[i]
		},
	})
	for _, inj := range injs {
		inj.armed.Store(true)
	}
	// Both pipelines absorb at most ~5 lookups each (one in-round, one
	// batched, one held by the collector, two queued); 24 clients therefore
	// guarantee rejections once both replicas wedge.
	const n = 24
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		needle := int64(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := f.Lookup(context.Background(), needle)
			if err == nil {
				checkAnswer(t, f, needle, res)
			}
			errs <- err
		}()
	}
	var overloaded int
	for overloaded < 3 {
		if err := <-errs; errors.Is(err, serve.ErrOverloaded) {
			overloaded++
		} else if err != nil {
			t.Fatalf("unexpected lookup error under overload: %v", err)
		}
	}
	for _, inj := range injs {
		inj.armed.Store(false)
		close(inj.release)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil && !errors.Is(err, serve.ErrOverloaded) {
			t.Errorf("unexpected lookup error: %v", err)
		}
	}
	st := f.Stats()
	if st.OverloadedAll < 3 {
		t.Fatalf("fleet recorded %d all-overloaded rejections, want ≥ 3: %+v", st.OverloadedAll, st)
	}
	if st.OracleServed != 0 {
		t.Fatalf("oracle absorbed %d overloaded lookups: %+v", st.OracleServed, st)
	}
}

// TestNewValidatesAndTearsDown pins constructor failure modes: a too-large
// fleet and an invalid instance template both refuse cleanly.
func TestNewValidatesAndTearsDown(t *testing.T) {
	if _, err := New(Config{Replicas: 65, Instance: serve.Config{Side: 8}}); err == nil {
		t.Fatal("65-replica fleet accepted (dispatch tracks tried replicas in a 64-bit word)")
	}
	if _, err := New(Config{Replicas: 2, Instance: serve.Config{Side: 7}}); err == nil {
		t.Fatal("invalid instance template accepted")
	}
}

// TestShutdownDrainsAllReplicas checks the fleet drain: admitted lookups
// complete, later ones fail typed, and a crashed replica does not block it.
func TestShutdownDrainsAllReplicas(t *testing.T) {
	f, err := New(Config{Replicas: 3, Instance: serve.Config{Side: 8, Linger: 2 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.CrashReplica(2); err != nil {
		t.Fatal(err)
	}
	const n = 18
	results := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		needle := int64(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := f.Lookup(context.Background(), needle)
			results <- err
		}()
	}
	time.Sleep(2 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := f.Shutdown(ctx); err != nil {
		t.Fatalf("fleet drain: %v", err)
	}
	wg.Wait()
	close(results)
	for err := range results {
		// A lookup that raced Shutdown may be answered or see ErrClosed;
		// nothing else is acceptable across a drain.
		if err != nil && !errors.Is(err, serve.ErrClosed) {
			t.Errorf("lookup across drain: %v", err)
		}
	}
	if _, err := f.Lookup(context.Background(), 1); !errors.Is(err, serve.ErrClosed) {
		t.Fatalf("post-shutdown lookup returned %v, want ErrClosed", err)
	}
	if f.Health() != serve.LameDuck {
		t.Fatalf("post-shutdown health %v, want %v", f.Health(), serve.LameDuck)
	}
}

// rungCounts is a tally of answered lookups by serving rung.
type rungCounts struct{ firstPick, failover, oracle int64 }

// checkRungs requires the fleet's answer rungs to equal what its clients
// observed, to sum to the kinds' answered lookups, and to be what the
// Prometheus exposition renders.
func checkRungs(t *testing.T, f *Fleet, want rungCounts, dispatched int64) {
	t.Helper()
	st := f.Stats()
	got := rungCounts{st.FirstPickServed, st.FailoverServed, st.OracleServed}
	if got != want {
		t.Errorf("answer rungs %+v, clients observed %+v", got, want)
	}
	var served int64
	for _, k := range st.ByKind {
		served += k.Served
	}
	if sum := got.firstPick + got.failover + got.oracle; sum != served {
		t.Errorf("answer rungs sum to %d, kinds served %d", sum, served)
	}
	if st.Dispatched != dispatched {
		t.Errorf("dispatched %d, clients sent %d", st.Dispatched, dispatched)
	}
	rec := httptest.NewRecorder()
	f.promMetrics(rec)
	for rung, n := range map[string]int64{"first_pick": want.firstPick, "failover": want.failover, "oracle": want.oracle} {
		line := fmt.Sprintf("meshfleet_answers_total{rung=%q} %d\n", rung, n)
		if !strings.Contains(rec.Body.String(), line) {
			t.Errorf("exposition lacks %q", strings.TrimSpace(line))
		}
	}
}

// TestAnswerRungsConserved pins the fleet's answer bookkeeping: every
// answered lookup is counted on exactly one rung (first pick, failover,
// fleet oracle), and a lookup that returns an error is counted on none — a
// cancelled lookup, and a lookup whose every rung failed with the oracle
// disabled. An unrouted lookup the oracle answers counts once, as oracle.
func TestAnswerRungsConserved(t *testing.T) {
	f := newTestFleet(t, Config{
		Replicas: 2,
		Policy:   LeastLoaded(), // ties break to replica 0, the broken one
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
	})
	var seen rungCounts
	var sent int64
	observe := func(ctx context.Context, needle int64) error {
		sent++
		res, err := f.Lookup(ctx, needle)
		if err != nil {
			return err
		}
		checkAnswer(t, f, needle, res)
		switch {
		case res.Replica < 0:
			seen.oracle++
		case f.instance(0) != nil:
			// Replica 0 is up and never answers: it was the first pick.
			seen.failover++
		default:
			seen.firstPick++
		}
		return nil
	}

	for i := int64(0); i < 6; i++ {
		if err := observe(context.Background(), 2*i+1); err != nil {
			t.Fatalf("failover lookup: %v", err)
		}
	}
	if err := f.CrashReplica(0); err != nil {
		t.Fatal(err)
	}
	// With replica 0 down, replica 1 is every lookup's first pick. The
	// concurrent burst runs the counters against each other under -race.
	const burst = 16
	var wg sync.WaitGroup
	var burstAnswered atomic.Int64
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := f.Lookup(context.Background(), int64(i))
			if err != nil || res.Replica != 1 {
				t.Errorf("burst lookup %d: replica %d, err %v", i, res.Replica, err)
				return
			}
			checkAnswer(t, f, int64(i), res)
			burstAnswered.Add(1)
		}()
	}
	wg.Wait()
	sent += burst
	seen.firstPick += burstAnswered.Load()

	// A cancelled client gets its context error, not an answer.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	errs := 0
	for i := int64(0); i < 3; i++ {
		if err := observe(cancelled, i); err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled lookup: %v", err)
			}
			errs++
		}
	}
	if errs == 0 {
		t.Fatal("no cancelled lookup returned its context error")
	}

	// With every replica down the lookup is unrouted and the oracle answers.
	if err := f.CrashReplica(1); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 4; i++ {
		if err := observe(context.Background(), i); err != nil {
			t.Fatalf("oracle lookup: %v", err)
		}
	}
	if st := f.Stats(); st.Unrouted != 4 {
		t.Fatalf("unrouted %d, want 4", st.Unrouted)
	}
	checkRungs(t, f, seen, sent)

	t.Run("DisableOracle with every rung failed", func(t *testing.T) {
		f2 := newTestFleet(t, Config{
			Replicas: 1, DisableOracle: true,
			Instance:     serve.Config{Side: 8, Audit: true, MaxRetries: -1, Linger: 100 * time.Microsecond},
			MakeInjector: func(int) mesh.Injector { return brokenInjector{} },
		})
		for i := int64(0); i < 3; i++ {
			if _, err := f2.Lookup(context.Background(), 2*i+1); err == nil {
				t.Fatal("a lookup on a broken replica with the oracle disabled was answered")
			}
		}
		checkRungs(t, f2, rungCounts{}, 3)
	})
}
