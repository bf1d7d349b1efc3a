package fleet

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/mesh"
	"repro/internal/serve"
)

// TestReplicaLimitPins pins the failover bitmask's capacity contract: exactly
// MaxReplicas replicas are accepted, one more is rejected with the typed
// error (the `tried` word tracks one bit per replica, so 65 would silently
// break failover).
func TestReplicaLimitPins(t *testing.T) {
	if MaxReplicas != 64 {
		t.Fatalf("MaxReplicas = %d; the failover bitmask is one uint64, so it must be 64", MaxReplicas)
	}

	// 64 replicas: accepted. Side 4 keeps the 64 instances cheap.
	f := newTestFleet(t, Config{Replicas: MaxReplicas, Instance: serve.Config{Side: 4}})
	if f.Replicas() != MaxReplicas {
		t.Fatalf("built %d replicas, want %d", f.Replicas(), MaxReplicas)
	}
	if _, err := f.Lookup(context.Background(), 3); err != nil {
		t.Fatalf("lookup on a full-width fleet: %v", err)
	}

	// 65 replicas: rejected with the typed error before any instance starts.
	_, err := New(Config{Replicas: MaxReplicas + 1, Instance: serve.Config{Side: 4}})
	var lim *ReplicaLimitError
	if !errors.As(err, &lim) {
		t.Fatalf("New with %d replicas: err = %v, want *ReplicaLimitError", MaxReplicas+1, err)
	}
	if lim.Replicas != MaxReplicas+1 {
		t.Fatalf("ReplicaLimitError.Replicas = %d, want %d", lim.Replicas, MaxReplicas+1)
	}
	if !strings.Contains(err.Error(), "65") || !strings.Contains(err.Error(), "64") {
		t.Fatalf("error %q names neither the limit nor the request", err)
	}
}

// TestFleetLookupKindRoutesAndChecks drives every served family through the
// fleet router and holds each answer to its kind's host oracle.
func TestFleetLookupKindRoutesAndChecks(t *testing.T) {
	kinds := []serve.Kind{serve.KindPointLoc, serve.KindInterval}
	f := newTestFleet(t, Config{
		Replicas: 2,
		Instance: serve.Config{Side: 8, Linger: 200 * time.Microsecond, Kinds: kinds},
	})
	ss := f.Structures()
	for _, k := range f.Kinds() {
		st := ss.Get(k)
		for i := int64(0); i < 12; i++ {
			args := st.ArgsFor(i)
			var res Result
			var err error
			for {
				res, err = f.LookupKind(context.Background(), k, args)
				if !errors.Is(err, serve.ErrOverloaded) {
					break
				}
				time.Sleep(time.Millisecond)
			}
			if err != nil {
				t.Fatalf("%s lookup %v: %v", k, args, err)
			}
			want := serve.HostAnswer(st, args)
			if res.Found != want.Found || res.Value != want.Value {
				t.Fatalf("%s %v: fleet answered found=%v value=%d, oracle says found=%v value=%d",
					k, args, res.Found, res.Value, want.Found, want.Value)
			}
		}
	}
	st := f.Stats()
	if len(st.ByKind) != len(f.Kinds()) {
		t.Fatalf("Stats().ByKind has %d entries, serving %d kinds", len(st.ByKind), len(f.Kinds()))
	}
	for _, kr := range st.ByKind {
		if kr.Served == 0 {
			t.Errorf("kind %s routed zero lookups", kr.Kind)
		}
	}
}

// TestFleetLookupKindNotServed rejects an unserved kind up front — no
// failover attempts are burned on a kind no replica can answer.
func TestFleetLookupKindNotServed(t *testing.T) {
	f := newTestFleet(t, Config{Replicas: 2, Instance: serve.Config{Side: 8}})
	before := f.Stats().Dispatched
	if _, err := f.LookupKind(context.Background(), serve.KindTangent, serve.Args{1, 0, 0}); !errors.Is(err, serve.ErrKindNotServed) {
		t.Fatalf("unserved kind: err = %v, want ErrKindNotServed", err)
	}
	if after := f.Stats().Dispatched; after != before {
		t.Fatalf("unserved kind burned %d dispatches", after-before)
	}
}

// TestFleetOracleServesTypedKinds kills the whole fleet's meshes (every
// audited round fails terminally) and requires the fleet-level oracle rung
// to answer typed kinds correctly, marked degraded.
func TestFleetOracleServesTypedKinds(t *testing.T) {
	kinds := []serve.Kind{serve.KindInterval}
	f := newTestFleet(t, Config{
		Replicas: 2,
		Instance: serve.Config{
			Side: 8, Linger: 100 * time.Microsecond, Kinds: kinds,
			Audit: true, MaxRetries: -1, BreakerWindow: 1,
		},
		// Every replica's breaker must open on its own mesh, so each needs
		// its own always-lying injector.
		MakeInjector: func(int) mesh.Injector { return brokenInjector{} },
	})
	st := f.Structures().Get(serve.KindInterval)
	for i := int64(0); i < 8; i++ {
		args := st.ArgsFor(i)
		res, err := f.LookupKind(context.Background(), serve.KindInterval, args)
		if err != nil {
			t.Fatalf("interval lookup %v with all meshes broken: %v", args, err)
		}
		if !res.Degraded || res.Replica != -1 {
			t.Fatalf("lookup %v: want a degraded fleet-oracle answer, got %+v", args, res)
		}
		want := serve.HostAnswer(st, args)
		if res.Found != want.Found || res.Value != want.Value {
			t.Fatalf("oracle answer for %v wrong: found=%v value=%d, want found=%v value=%d",
				args, res.Found, res.Value, want.Found, want.Value)
		}
	}
	if f.Stats().OracleServed == 0 {
		t.Fatal("no lookups reached the fleet oracle; the test exercised nothing")
	}
}
