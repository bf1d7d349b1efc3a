package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/mesh"
)

// GateInjector injects a lying comparator into every sort while Broken —
// a switchable mesh failure for driving the circuit breaker through its
// transitions. Exported (test builds only) for the serve_test package.
type GateInjector struct{ Broken atomic.Bool }

func (g *GateInjector) SortLie(_ string, items int) int64 {
	if g.Broken.Load() && items >= 2 {
		return 1
	}
	return 0
}
func (g *GateInjector) CorruptCell(string, int) (int, int, bool) { return 0, 0, false }
func (g *GateInjector) DropReply(int) (int, bool)                { return 0, false }
func (g *GateInjector) DuplicateReply(int) (int, int, bool)      { return 0, 0, false }

// panicInjector panics at its n-th consultation (counting every seam),
// modelling a simulator bug surfacing mid-operation. It only counts once
// armed, so the chargeless register initialization in serve.New — which
// runs outside the core.Run containment boundary — is not a target.
type panicInjector struct {
	armed atomic.Bool
	mu    sync.Mutex
	calls int
	at    int
}

func (p *panicInjector) tick() {
	if !p.armed.Load() {
		return
	}
	p.mu.Lock()
	calls := p.calls
	p.calls++
	p.mu.Unlock()
	if calls == p.at {
		panic("injected simulator bug")
	}
}
func (p *panicInjector) SortLie(string, int) int64 { p.tick(); return 0 }
func (p *panicInjector) CorruptCell(string, int) (int, int, bool) {
	p.tick()
	return 0, 0, false
}
func (p *panicInjector) DropReply(int) (int, bool) { p.tick(); return 0, false }
func (p *panicInjector) DuplicateReply(int) (int, int, bool) {
	p.tick()
	return 0, 0, false
}

// TestTypedFaultsCrossRetryBoundary proves errors.As through serve.Lookup
// results still reaches the typed mesh faults once the retry ladder sits in
// between (the ladder ends in the typed fault).
func TestTypedFaultsCrossRetryBoundary(t *testing.T) {
	t.Run("budget", func(t *testing.T) {
		s := newTestServer(t, Config{Side: 8, Budget: 3})
		_, err := s.Lookup(context.Background(), 1)
		var be *mesh.BudgetExceededError
		if !errors.As(err, &be) {
			t.Fatalf("lookup error %v does not unwrap to *mesh.BudgetExceededError", err)
		}
		st := s.Stats()
		if st.FaultsBudget == 0 {
			t.Fatalf("budget fault not classified: %+v", st)
		}
		if st.Retries != 0 {
			t.Fatalf("budget overrun was retried %d times; it is deterministic and must not be", st.Retries)
		}
	})

	t.Run("audit", func(t *testing.T) {
		g := &GateInjector{}
		g.Broken.Store(true) // every sort lies, every attempt trips the audit
		s := newTestServer(t, Config{
			Side: 8, Audit: true, Injector: g,
			MaxRetries: 1, RetryBackoff: 10 * time.Microsecond,
		})
		_, err := s.Lookup(context.Background(), 1)
		var ae *mesh.AuditError
		if !errors.As(err, &ae) {
			t.Fatalf("lookup error %v does not unwrap to *mesh.AuditError", err)
		}
		st := s.Stats()
		if st.Retries != 1 {
			t.Fatalf("audit fault retried %d times, want exactly MaxRetries=1", st.Retries)
		}
		if st.FaultsAudit < 2 {
			t.Fatalf("want a classified audit fault per attempt, got %d", st.FaultsAudit)
		}
	})

	t.Run("panic", func(t *testing.T) {
		// A panic's envelope depends on where it fires: inside a RunParallel
		// body it surfaces as *mesh.PanicError, on the root chain as a
		// *core.RunError with the recovered stack. Sweep injection points:
		// every error must classify FaultPanic, and at least one must reach
		// *mesh.PanicError (the parallel regions of Algorithm 2 guarantee
		// consultations there).
		sawPanicError := false
		for _, at := range []int{0, 2, 4, 8, 16, 32, 64, 128} {
			inj := &panicInjector{at: at}
			s := newTestServer(t, Config{
				Side: 8, Injector: inj, MaxRetries: -1, Parallelism: 1,
			})
			inj.armed.Store(true)
			_, err := s.Lookup(context.Background(), 1)
			if err == nil {
				continue // injection point past this round's consultations
			}
			if got := core.Classify(err); got != core.FaultPanic {
				t.Fatalf("at=%d: classified %v, want %v (err: %v)", at, got, core.FaultPanic, err)
			}
			var pe *mesh.PanicError
			if errors.As(err, &pe) {
				sawPanicError = true
			}
			var re *core.RunError
			if !errors.As(err, &re) {
				t.Fatalf("at=%d: error %v lacks the *core.RunError envelope", at, err)
			}
		}
		if !sawPanicError {
			t.Fatal("no injection point surfaced as *mesh.PanicError through Lookup")
		}
	})
}

// TestChaosSortFaultRetriedAndRecovered is the satellite chaos proof: a
// seeded injector corrupts sorts under a live query stream, the audit
// catches every fault, the ladder retries, and every answer is still
// correct against the host oracle — zero wrong answers, zero failed
// queries.
func TestChaosSortFaultRetriedAndRecovered(t *testing.T) {
	inj := faults.New(faults.Config{Seed: 42, PSortLie: 0.2, Limit: 5})
	s := newTestServer(t, Config{
		Side: 8, Audit: true, Injector: inj,
		MaxRetries: 6, RetryBackoff: 20 * time.Microsecond,
		Linger: 200 * time.Microsecond,
	})
	const clients, perClient = 8, 15
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				needle := int64((c*perClient + i) % 40)
				var res Result
				var err error
				for {
					res, err = s.Lookup(context.Background(), needle)
					if !errors.Is(err, ErrOverloaded) {
						break
					}
					time.Sleep(time.Millisecond)
				}
				if err != nil {
					errs <- err
					return
				}
				if res.Found != s.Structures().Membership().Contains(needle) {
					errs <- errors.New("wrong membership answer under chaos")
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
	st := s.Stats()
	if inj.Count() == 0 {
		t.Fatal("chaos injector never fired; the test proved nothing")
	}
	if st.FaultsAudit == 0 {
		t.Fatalf("injected sort faults were not caught by the audit: %+v (injected %d)", st, inj.Count())
	}
	if st.Retries == 0 || st.Recovered == 0 {
		t.Fatalf("no retry/recovery recorded: %+v", st)
	}
	if st.Failed != 0 {
		t.Fatalf("%d queries failed; recovery must make faults invisible: %+v", st.Failed, st)
	}
	if st.Served != clients*perClient {
		t.Fatalf("served %d, want %d", st.Served, clients*perClient)
	}
	t.Logf("injected %d faults → %d retries, %d recovered rounds",
		inj.Count(), st.Retries, st.Recovered)
}

// TestShutdownEntersLameDuck pins the terminal health state: once Shutdown
// begins the instance reports lame-duck, still with a positive retry hint
// for the Retry-After that tells clients when to come back, and Probe
// returns ErrClosed at once. (The /healthz side — 503, lame-duck,
// Retry-After — is pinned on a fleet by fleet's TestFleetHTTPAfterShutdown.)
func TestShutdownEntersLameDuck(t *testing.T) {
	s, err := New(Config{Side: 8})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if s.Health() != LameDuck {
		t.Fatalf("health after shutdown %v, want %v", s.Health(), LameDuck)
	}
	if s.Health().String() != "lame-duck" {
		t.Fatalf("health after shutdown reads %q, want lame-duck", s.Health())
	}
	if s.RetryAfterHint() <= 0 {
		t.Fatalf("lame-duck retry hint %v, want positive", s.RetryAfterHint())
	}
	if err := s.Probe(ctx); !errors.Is(err, ErrClosed) {
		t.Fatalf("probe after shutdown returned %v, want ErrClosed", err)
	}
}
