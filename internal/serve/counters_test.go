package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
)

// TestServedCountersConserved checks that the serving counters are exact at
// the moment the last lookup returns: every admitted lookup is either
// served or failed (Accepted == Served + Failed — retry-ladder budget sheds
// are failures, and admission sheds are never accepted), and the served,
// degraded and failed counts match what the clients saw, in total and per
// kind. The counters are bumped before the replies are sent, so a returned
// Lookup is already counted: each client also checks, right after every
// return, that Served+Failed covers every lookup returned so far — a reply
// that overtook its counter shows up there, since a round sends its whole
// batch before a late counter bump would land.
func TestServedCountersConserved(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		// Faults under audit: retries, recovered rounds, degraded answers.
		{"degrade", Config{
			Injector:   faults.New(faults.Config{Seed: 7, PSortLie: 0.002, PCorrupt: 0.002, PDrop: 0.002, PDup: 0.002}),
			MaxRetries: 1, RetryBackoff: 10 * time.Microsecond,
		}},
		// No degrade rung: a round that exhausts its retries fails its batch.
		{"fail", Config{
			Injector:   faults.New(faults.Config{Seed: 7, PSortLie: 0.004, PCorrupt: 0.004}),
			MaxRetries: 1, RetryBackoff: 10 * time.Microsecond, DisableDegrade: true,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Side, cfg.Audit, cfg.Kinds = 8, true, allExtraKinds
			cfg.Linger = 200 * time.Microsecond
			s := newTestServer(t, cfg)
			ss := s.Structures()
			kinds := s.Kinds()
			served := make([]int64, NumKinds)
			degraded := make([]int64, NumKinds)
			failed := make([]int64, NumKinds)
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
							res, err := s.LookupKind(context.Background(), k, args)
							for errors.Is(err, ErrOverloaded) {
								time.Sleep(100 * time.Microsecond)
								res, err = s.LookupKind(context.Background(), k, args)
							}
							n := returned.Add(1)
							if st := s.Stats(); st.Served+st.Failed < n {
								early.Add(1)
							}
							switch {
							case err != nil:
								bad++
							case res.Degraded:
								ok++
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
			st := s.Stats()
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
			if st.Served != wantServed || st.Degraded != wantDegraded || st.Failed != wantFailed {
				t.Errorf("counters served/degraded/failed = %d/%d/%d, clients saw %d/%d/%d",
					st.Served, st.Degraded, st.Failed, wantServed, wantDegraded, wantFailed)
			}
			for _, ks := range st.Kinds {
				k, err := ParseKind(ks.Kind)
				if err != nil {
					t.Fatal(err)
				}
				if ks.Served != served[k] || ks.Degraded != degraded[k] {
					t.Errorf("%s: served/degraded = %d/%d, clients saw %d/%d",
						ks.Kind, ks.Served, ks.Degraded, served[k], degraded[k])
				}
			}
			t.Logf("accepted %d: served %d (degraded %d), failed %d; retries %d",
				st.Accepted, st.Served, st.Degraded, st.Failed, st.Retries)
		})
	}
}
