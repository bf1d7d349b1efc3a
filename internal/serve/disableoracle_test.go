package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/mesh"
)

// TestDisableOracleSurfacesTypedFaults pins the fleet-facing instance
// contract (DESIGN.md §3.6, §3.8): an instance has no oracle rung, so a
// round the mesh cannot serve returns its typed fault — never a host-oracle
// answer — and a fleet can fail the lookup over to another replica before
// anything degrades. The breaker and health machine still run, and Probe's
// audited canary is what closes an open circuit. (The name predates the
// removal of the DisableOracle knob; this is now the default and only
// behaviour.)
func TestDisableOracleSurfacesTypedFaults(t *testing.T) {
	t.Run("budget overrun fails typed instead of degrading", func(t *testing.T) {
		s := newTestServer(t, Config{Side: 8, Budget: 3})
		_, err := s.Lookup(context.Background(), 1)
		var be *mesh.BudgetExceededError
		if !errors.As(err, &be) {
			t.Fatalf("lookup error %v does not unwrap to *mesh.BudgetExceededError", err)
		}
		st := s.Stats()
		if st.Degraded != 0 {
			t.Fatalf("an instance answered from an oracle: %+v", st)
		}
		if st.Failed == 0 {
			t.Fatalf("failed lookup not counted: %+v", st)
		}
	})

	t.Run("open circuit fast-fails and canaries still close it", func(t *testing.T) {
		g := &GateInjector{}
		s := newTestServer(t, Config{
			Side: 8, Audit: true, Injector: g,
			MaxRetries: -1, RetryBackoff: 10 * time.Microsecond,
		})
		ctx := context.Background()
		if res, err := s.Lookup(ctx, 3); err != nil || res.Degraded {
			t.Fatalf("healthy lookup: res=%+v err=%v", res, err)
		}
		// Probing a closed circuit runs no canary.
		if err := s.Probe(ctx); err != nil || s.Stats().CanaryRounds != 0 {
			t.Fatalf("probe of a healthy instance: err=%v stats=%+v", err, s.Stats())
		}

		// Break the mesh: the round fails terminally and must surface the
		// audit fault to the caller, not an oracle answer.
		g.Broken.Store(true)
		_, err := s.Lookup(ctx, 5)
		var ae *mesh.AuditError
		if !errors.As(err, &ae) {
			t.Fatalf("broken-mesh lookup error %v does not unwrap to *mesh.AuditError", err)
		}
		if s.Health() != Degraded {
			t.Fatalf("health %v after terminal failure, want %v", s.Health(), Degraded)
		}
		// With the circuit open, lookups fail fast with the typed sentinel —
		// the signal a fleet dispatcher fails over on without waiting a round.
		rounds := s.Stats().Rounds
		if _, err := s.Lookup(ctx, 7); !errors.Is(err, ErrCircuitOpen) {
			t.Fatalf("open-circuit lookup error %v, want ErrCircuitOpen", err)
		}
		if got := s.Stats().Rounds; got != rounds {
			t.Fatalf("a fast-failed batch counted a round: %d → %d", rounds, got)
		}
		// A canary on the still-broken mesh fails and keeps the circuit open.
		if err := s.Probe(ctx); !errors.As(err, &ae) || s.Health() != Degraded {
			t.Fatalf("probe of a broken mesh: err=%v health=%v", err, s.Health())
		}

		// Heal the mesh: the next canary closes the circuit.
		g.Broken.Store(false)
		if err := s.Probe(ctx); err != nil || s.Health() != Healthy {
			t.Fatalf("probe of a healed mesh: err=%v health=%v", err, s.Health())
		}
		if res, err := s.Lookup(ctx, 3); err != nil || res.Degraded || !res.Found {
			t.Fatalf("post-recovery lookup: res=%+v err=%v", res, err)
		}
		st := s.Stats()
		if st.Degraded != 0 {
			t.Fatalf("an instance answered from an oracle somewhere in the cycle: %+v", st)
		}
		if st.CircuitOpens != 1 || st.CircuitCloses != 1 || st.CanaryRounds != 2 || st.CanaryFails != 1 {
			t.Fatalf("breaker/canary bookkeeping: %+v", st)
		}
	})
}
