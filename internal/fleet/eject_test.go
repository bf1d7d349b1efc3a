package fleet

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/serve"
)

// inertEject is a fleet config for tests that drive the scoring machinery
// by hand: the outlier rule is live, but the prober is parked on an
// hour-long interval so it cannot interleave with the test's samples.
func inertEject(minSamples int64) Config {
	return Config{
		Replicas:      3,
		Instance:      serve.Config{Side: 8, Linger: 100 * time.Microsecond},
		Eject:         EjectConfig{Enabled: true, Multiple: 4, MinSamples: minSamples},
		ProbeInterval: time.Hour,
	}
}

// TestLatencyOutlierIsEjected drives the §3.11 scoring rule directly: three
// replicas, two fast and one consistently 100× slower. Once every replica
// clears the sample floor the slow one's EWMA exceeds 4× the fleet median
// and it is ejected — routing then avoids it, the fleet stays Healthy, its
// stats row carries the fleet's "ejected" verdict over the instance's own
// Healthy self-report, and a manual readmit restores it.
func TestLatencyOutlierIsEjected(t *testing.T) {
	cfg := inertEject(4)
	cfg.Policy = LeastLoaded()
	f := newTestFleet(t, cfg)
	for i := 0; i < 6; i++ {
		f.noteLatency(1, time.Millisecond)
		f.noteLatency(2, time.Millisecond)
	}
	for i := 0; i < 6; i++ {
		f.noteLatency(0, 100*time.Millisecond)
	}

	st := f.Stats()
	if st.Ejections != 1 || st.EjectedReplicas != 1 {
		t.Fatalf("100× outlier not ejected: %+v", st)
	}
	row := st.PerReplica[0]
	if !row.Ejected || row.Health != serve.Ejected.String() {
		t.Fatalf("replica 0 row lacks the ejection verdict: %+v", row)
	}
	if row.LatencyEWMA < 10*time.Millisecond {
		t.Fatalf("ejected replica's score %v does not reflect its samples", row.LatencyEWMA)
	}
	if st.Health != serve.Healthy.String() || st.HealthyReplicas != 2 {
		t.Fatalf("fleet with 2 healthy replicas after ejection: %+v", st)
	}

	// Routing avoids the ejected replica while healthy peers exist.
	for i := 0; i < 8; i++ {
		needle := int64(2*i + 1)
		res, err := f.Lookup(context.Background(), needle)
		if err != nil {
			t.Fatalf("lookup %d with one ejected replica: %v", needle, err)
		}
		checkAnswer(t, f, needle, res)
		if res.Replica == 0 {
			t.Fatalf("lookup %d routed to the ejected replica", needle)
		}
	}

	if err := f.ReadmitReplica(0); err != nil {
		t.Fatal(err)
	}
	st = f.Stats()
	if st.Readmissions != 1 || st.EjectedReplicas != 0 || st.PerReplica[0].Ejected {
		t.Fatalf("manual readmit did not clear the ejection: %+v", st)
	}
}

// TestAutoEjectionSparesLastRoutableReplica pins the guard rail: automatic
// ejection never takes the last replica that could serve — a slow answer
// beats an oracle answer — no matter how damning the replica's score.
func TestAutoEjectionSparesLastRoutableReplica(t *testing.T) {
	f := newTestFleet(t, inertEject(2))
	// Establish the fast baseline first — a sample fed to an ejected
	// replica would count toward its re-admission.
	for i := 0; i < 4; i++ {
		f.noteLatency(1, time.Millisecond)
		f.noteLatency(2, time.Millisecond)
	}
	// Operators take replicas 1 and 2 out; only replica 0 can serve.
	if err := f.EjectReplica(1); err != nil {
		t.Fatal(err)
	}
	if err := f.EjectReplica(2); err != nil {
		t.Fatal(err)
	}
	// Replica 0 is an extreme outlier by score — 100× the peers — but it is
	// the last routable replica, so the rule must not fire.
	for i := 0; i < 4; i++ {
		f.noteLatency(0, 100*time.Millisecond)
	}
	st := f.Stats()
	if st.PerReplica[0].Ejected {
		t.Fatalf("auto-ejection took the last routable replica: %+v", st)
	}
	if st.Ejections != 2 {
		t.Fatalf("ejection count %d, want the 2 manual ones", st.Ejections)
	}
	res, err := f.Lookup(context.Background(), 3)
	if err != nil {
		t.Fatalf("lookup on the spared replica: %v", err)
	}
	checkAnswer(t, f, 3, res)
	if res.Replica != 0 {
		t.Fatalf("lookup served by replica %d, want the spared replica 0", res.Replica)
	}
}

// TestAllEjectedDegradesThenProbesReadmit is the satellite-3 contract: with
// every replica manually ejected the fleet is Degraded — /healthz flips to
// 503 with a Retry-After, and RetryAfterHint is one probe interval, because
// re-admission is gated on the prober's next canary. Lookups still answer
// correctly (an ejected replica's slow answer beats an oracle answer), and
// the canary prober then measures the replicas healthy and re-admits them
// without any operator action.
func TestAllEjectedDegradesThenProbesReadmit(t *testing.T) {
	const probeEvery = 25 * time.Millisecond
	f := newTestFleet(t, Config{
		Replicas: 2,
		Instance: serve.Config{Side: 8, Linger: 100 * time.Microsecond},
		Eject: EjectConfig{
			Enabled:      true,
			MinSamples:   2,
			ProbeTimeout: 2 * time.Second,
		},
		ProbeInterval: probeEvery,
	})
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()
	healthz := func() (int, http.Header) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, resp.Header
	}

	if code, _ := healthz(); code != http.StatusOK {
		t.Fatalf("/healthz on a whole fleet → %d", code)
	}

	if err := f.EjectReplica(0); err != nil {
		t.Fatal(err)
	}
	if err := f.EjectReplica(1); err != nil {
		t.Fatal(err)
	}
	if h := f.Health(); h != serve.Degraded {
		t.Fatalf("all-ejected fleet health %v, want Degraded", h)
	}
	if hint := f.RetryAfterHint(); hint != probeEvery {
		t.Fatalf("all-ejected RetryAfterHint %v, want the probe interval %v", hint, probeEvery)
	}
	code, hdr := healthz()
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz with every replica ejected → %d, want 503", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("503 /healthz carried no Retry-After")
	}

	// Serving never stops: the ejection-masked last-resort pick answers.
	res, err := f.Lookup(context.Background(), 3)
	if err != nil {
		t.Fatalf("lookup with every replica ejected: %v", err)
	}
	checkAnswer(t, f, 3, res)
	if st := f.Stats(); st.OracleServed != 0 {
		t.Fatalf("all-ejected lookup fell through to the oracle: %+v", st)
	}

	// The canary prober re-measures the (actually fast) replicas and
	// re-admits them: no operator in the loop.
	deadline := time.Now().Add(10 * time.Second)
	for f.Health() != serve.Healthy && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	st := f.Stats()
	if f.Health() != serve.Healthy {
		t.Fatalf("prober never re-admitted a healthy replica: %+v", st)
	}
	if st.Readmissions == 0 || st.EjectProbes == 0 {
		t.Fatalf("recovery happened without probes/readmissions on the books: %+v", st)
	}
	if code, _ := healthz(); code != http.StatusOK {
		t.Fatalf("/healthz after prober re-admission → %d", code)
	}
}
