package loadgen

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/serve"
)

func TestParseKindMix(t *testing.T) {
	m, err := ParseKindMix("membership:0.6,pointloc:0.3,interval:0.1")
	if err != nil {
		t.Fatal(err)
	}
	want := []serve.Kind{serve.KindMembership, serve.KindPointLoc, serve.KindInterval}
	if got := m.Kinds(); len(got) != len(want) || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("Kinds() = %v, want %v", got, want)
	}
	// String renders a parseable, normalized form.
	back, err := ParseKindMix(m.String())
	if err != nil {
		t.Fatalf("String() %q not parseable: %v", m.String(), err)
	}
	if back.String() != m.String() {
		t.Fatalf("String round trip: %q vs %q", back.String(), m.String())
	}

	// Bare names get weight 1 each; the empty spec is membership only.
	m2, err := ParseKindMix("pointloc,tangent")
	if err != nil || len(m2.Kinds()) != 2 {
		t.Fatalf("bare-name mix: %v, %v", m2, err)
	}
	m3, err := ParseKindMix("")
	if err != nil || len(m3.Kinds()) != 1 || m3.Kinds()[0] != serve.KindMembership {
		t.Fatalf("empty mix: %v, %v", m3, err)
	}

	// Unnormalized weights describe the same mix as their normalized form.
	a, _ := ParseKindMix("membership:3,pointloc:1")
	b, _ := ParseKindMix("membership:0.75,pointloc:0.25")
	if a.String() != b.String() {
		t.Fatalf("weight normalization: %q vs %q", a.String(), b.String())
	}

	for _, bad := range []string{"bogus:1", "membership:-1", "membership:0", "membership:x", "membership:1,membership:2"} {
		if _, err := ParseKindMix(bad); err == nil {
			t.Errorf("ParseKindMix(%q) did not error", bad)
		}
	}
}

func TestKindMixDrawWeightsAndDeterminism(t *testing.T) {
	m, _ := ParseKindMix("membership:0.7,interval:0.3")
	counts := map[serve.Kind]int{}
	rng := rand.New(rand.NewSource(1))
	const n = 20_000
	for i := 0; i < n; i++ {
		counts[m.Draw(rng)]++
	}
	if frac := float64(counts[serve.KindMembership]) / n; frac < 0.67 || frac > 0.73 {
		t.Fatalf("membership drawn %.3f of the time, want ≈0.7", frac)
	}
	// Same seed → same draw sequence.
	r1, r2 := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
	for i := 0; i < 100; i++ {
		if m.Draw(r1) != m.Draw(r2) {
			t.Fatal("Draw is not deterministic in the rng")
		}
	}
}

func TestGenerateMixTypedArguments(t *testing.T) {
	sched := Schedule{{Rate: 2000, Dur: 100 * time.Millisecond}}
	arr, err := Poisson(sched, 1)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := UniformKeys(16, 1)
	if err != nil {
		t.Fatal(err)
	}
	mix, _ := ParseKindMix("membership:0.5,interval:0.5")
	argsFor := func(k serve.Kind, needle int64) serve.Args {
		if k == serve.KindInterval {
			return serve.Args{needle, needle + 3}
		}
		return serve.Args{needle}
	}
	events, err := GenerateMix(arr, keys, mix, argsFor, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	sawInterval := false
	for _, ev := range events {
		switch ev.Kind {
		case serve.KindMembership:
			if ev.Args != (serve.Args{ev.Needle}) {
				t.Fatalf("membership event args %v, want [%d]", ev.Args, ev.Needle)
			}
		case serve.KindInterval:
			sawInterval = true
			if ev.Args != (serve.Args{ev.Needle, ev.Needle + 3}) {
				t.Fatalf("interval event args %v for needle %d", ev.Args, ev.Needle)
			}
		default:
			t.Fatalf("event drew kind %s outside the mix", ev.Kind)
		}
	}
	if !sawInterval {
		t.Fatal("no interval events drawn from a 50% mix")
	}

	// A non-membership mix without an argument mapping is an error, not a
	// silently mis-typed plan.
	arr2, _ := Poisson(sched, 1)
	if _, err := GenerateMix(arr2, keys, mix, nil, 7, 0); err == nil {
		t.Fatal("GenerateMix with nil argsFor for a typed mix did not error")
	}
}

// TestDigestFoldsOutcomes is the satellite-2 pin: two runs producing the
// same answers by different paths (mesh-served vs degraded) must hash
// differently once outcomes are folded into the digest.
func TestDigestFoldsOutcomes(t *testing.T) {
	mk := func(outcome string) []TraceEvent {
		return []TraceEvent{
			{I: 0, AtNS: 0, Needle: 3, Args: serve.Args{3}, OK: true, Found: true, Value: 3, Outcome: outcome},
			{I: 1, AtNS: 10, Needle: 8, Args: serve.Args{8}, OK: true, Found: false, Value: 7, Outcome: "ok"},
		}
	}
	ok, deg := Digest(mk("ok")), Digest(mk("degraded"))
	if ok == deg {
		t.Fatal("digests identical across differing outcomes: outcome not folded in")
	}
	// Still deterministic in the events.
	if Digest(mk("ok")) != ok {
		t.Fatal("digest not deterministic")
	}
	// Kind is folded in too: the same scalar answer under a different kind
	// must not collide.
	a := []TraceEvent{{I: 0, Needle: 3, Args: serve.Args{3}, OK: true, Found: true, Value: 3, Outcome: "ok"}}
	b := []TraceEvent{{I: 0, Kind: serve.KindInterval, Needle: 3, Args: serve.Args{3}, OK: true, Found: true, Value: 3, Outcome: "ok"}}
	if Digest(a) == Digest(b) {
		t.Fatal("digests identical across differing kinds")
	}
}

// TestReadTraceV1Compat pins the trace-format contract: a v1 JSONL trace
// (membership only, no kinds, no outcomes) reads back as membership-kind
// events with Args and Value normalized, so replay and digesting work on old
// recordings.
func TestReadTraceV1Compat(t *testing.T) {
	v1 := strings.Join([]string{
		`{"kind":"meshserve-workload-trace","version":1,"workload":"poisson","side":8,"keys":16,"seed":42,"events":2}`,
		`{"i":0,"at_ns":0,"needle":3,"ok":true,"found":true,"leaf":3,"steps":4}`,
		`{"i":1,"at_ns":1500,"needle":8}`,
	}, "\n") + "\n"
	h, events, err := ReadTrace(strings.NewReader(v1))
	if err != nil {
		t.Fatal(err)
	}
	if h.Version != 1 || h.Kinds != "" {
		t.Fatalf("v1 header mangled: %+v", h)
	}
	ev := events[0]
	if ev.Kind != serve.KindMembership || ev.Args != (serve.Args{3}) || ev.Value != 3 || ev.Outcome != "ok" {
		t.Fatalf("v1 answered event not normalized: %+v", ev)
	}
	if e := events[1]; e.Kind != serve.KindMembership || e.Args != (serve.Args{8}) || e.OK || e.Outcome != "" {
		t.Fatalf("v1 unanswered event not normalized: %+v", e)
	}
	// And the normalized events digest/compare like native v2 ones.
	if Digest(events) == "" || Digest(events) != Digest(events) {
		t.Fatal("v1-normalized events do not digest deterministically")
	}
}

// TestTraceV2RoundTripWithKinds pins the v2 format: kinds, typed args, aux
// and outcomes survive a write/read cycle, and the header records the mix.
func TestTraceV2RoundTripWithKinds(t *testing.T) {
	events := []TraceEvent{
		{I: 0, AtNS: 0, Kind: serve.KindPointLoc, Needle: 5, Args: serve.Args{12, -7}, OK: true, Found: true, Value: 3, Steps: 6, Outcome: "ok"},
		{I: 1, AtNS: 900, Kind: serve.KindTangent, Needle: 9, Args: serve.Args{1, 0, -2}, OK: true, Found: true, Value: 4, Aux: 77, Steps: 5, Outcome: "degraded"},
		{I: 2, AtNS: 2000, Needle: 6, Args: serve.Args{6}, Outcome: "rejected"},
	}
	h := TraceHeader{Workload: "poisson", Side: 8, Keys: 16, Seed: 1, Kinds: "pointloc:0.5,tangent:0.5"}
	var buf strings.Builder
	if err := WriteTrace(&buf, h, events); err != nil {
		t.Fatal(err)
	}
	gotH, gotE, err := ReadTrace(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if gotH.Version != 2 || gotH.Kinds != h.Kinds {
		t.Fatalf("v2 header mangled: %+v", gotH)
	}
	for i := range events {
		if gotE[i] != events[i] {
			t.Fatalf("event %d mangled: %+v vs %+v", i, gotE[i], events[i])
		}
	}
	// StripAnswers keeps the arrival identity including kind and args.
	stripped := StripAnswers(gotE)
	if s := stripped[1]; s.Kind != serve.KindTangent || s.Args != events[1].Args || s.OK || s.Outcome != "" {
		t.Fatalf("StripAnswers mangled arrival identity: %+v", s)
	}
}

// TestSLOPerKindClauses pins the mixed-workload SLO semantics: a minority
// kind blowing its p99 fails the probe even when the majority kind keeps the
// combined aggregate under target, and PerKind overrides relax one kind
// without relaxing the rest.
func TestSLOPerKindClauses(t *testing.T) {
	slo := SLO{P99: 10 * time.Millisecond, MaxDegraded: 1, MaxRejected: 1}
	rep := &Report{
		Total: WindowStats{Offered: 100, Answered: 100, P99: 5 * time.Millisecond},
		Kinds: map[string]*WindowStats{
			"membership": {Offered: 90, Answered: 90, P99: 4 * time.Millisecond},
			"pointloc":   {Offered: 10, Answered: 10, P99: 50 * time.Millisecond},
		},
	}
	pass, reason := slo.Pass(rep)
	if pass {
		t.Fatal("blown minority-kind p99 passed the combined SLO")
	}
	if !strings.Contains(reason, "pointloc") {
		t.Fatalf("violation %q does not name the kind", reason)
	}

	// A per-kind override admits the slow kind without loosening the rest.
	slo.PerKind = map[string]SLO{"pointloc": {P99: 100 * time.Millisecond, MaxDegraded: 1, MaxRejected: 1}}
	if pass, reason := slo.Pass(rep); !pass {
		t.Fatalf("per-kind override still fails: %s", reason)
	}
	rep.Kinds["membership"].P99 = 20 * time.Millisecond
	if pass, _ := slo.Pass(rep); pass {
		t.Fatal("non-overridden kind escaped the top-level clause")
	}
}

// TestRunMixedKindsChaosZeroWrong is the end-to-end mixed-workload bar: a
// three-kind open-loop run against a chaos-injected fleet of one (the
// serving shape meshserve runs), every answer checked against its kind's
// own host oracle — zero mismatches, zero failed queries, and per-kind
// aggregates in the report.
func TestRunMixedKindsChaosZeroWrong(t *testing.T) {
	inj := faults.New(faults.Config{Seed: 42, PSortLie: 0.03, PCorrupt: 0.03, PDrop: 0.03, PDup: 0.03})
	f, err := fleet.New(fleet.Config{Instance: serve.Config{
		Side: 8, Linger: 500 * time.Microsecond,
		Kinds: []serve.Kind{serve.KindPointLoc, serve.KindInterval},
		Audit: true, Injector: inj,
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		_ = f.Shutdown(ctx)
	})

	sched := Schedule{{Rate: 400, Dur: 600 * time.Millisecond}}
	arr, err := Poisson(sched, 7)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := ZipfKeys(16, 1.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	mix, _ := ParseKindMix("membership:0.5,pointloc:0.3,interval:0.2")
	events, err := GenerateMix(arr, keys, mix, StructureArgs(f.Structures()), 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(Config{
		LookupKind: func(ctx context.Context, kind serve.Kind, args serve.Args) (serve.Result, error) {
			res, err := f.LookupKind(ctx, kind, args)
			return res.Result, err
		},
		Stats:  func() serve.Stats { return f.Stats().Agg },
		Events: events, Window: 200 * time.Millisecond,
		Check: StructureChecker(f.Structures()),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total.Mismatched > 0 {
		t.Fatalf("%d answers disagreed with their kind's host oracle under chaos", rep.Total.Mismatched)
	}
	if rep.Total.Failed > 0 {
		t.Fatalf("%d queries failed under chaos", rep.Total.Failed)
	}
	if len(rep.Kinds) != 3 {
		t.Fatalf("report has per-kind aggregates for %d kinds, want 3", len(rep.Kinds))
	}
	for name, ks := range rep.Kinds {
		if ks.Answered == 0 {
			t.Errorf("kind %s answered nothing", name)
		}
		if ks.Mismatched > 0 || ks.Failed > 0 {
			t.Errorf("kind %s: %d mismatched, %d failed", name, ks.Mismatched, ks.Failed)
		}
	}
	if inj.Count() == 0 {
		t.Fatal("chaos injected no faults; the test exercised nothing")
	}
	// Outcomes were folded into every event for the digest.
	for i := range events {
		if events[i].Outcome == "" {
			t.Fatalf("event %d has no outcome after the run", i)
		}
	}
}
