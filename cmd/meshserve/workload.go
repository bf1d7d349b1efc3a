package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/fleet"
	"repro/internal/loadgen"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/serve"
)

func context30s() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), 30*time.Second)
}

// workloadFlags collects the open-loop harness knobs (-workload and
// friends); see DESIGN.md §3.7–3.8 and EXPERIMENTS.md E22–E23.
type workloadFlags struct {
	mode     string // poisson | burst | replay
	rate     string // schedule spec: "400" or "200x2s,800x500ms"
	dur      time.Duration
	window   time.Duration
	on, off  time.Duration
	zipf     float64 // 0 = uniform, else Zipf exponent (> 1)
	seed     int64
	deadline time.Duration
	maxInFl  int
	trace    bool // -obs: propagate traceparent to remote targets, sample stage means

	// Query-kind mix (-kinds, DESIGN.md §3.10): the raw spec for trace
	// headers and bench docs, and the parsed mix the generator draws from.
	// A nil mix means membership only (the pre-kind behaviour).
	kinds string
	mix   *loadgen.KindMix

	traceOut string
	traceIn  string
	benchOut string

	saturate    bool
	sloP99      time.Duration
	sloDegraded float64
	sloRejected float64
	satBisect   int
	satMax      float64
	probeDur    time.Duration

	// Fleet / remote targeting (DESIGN.md §3.8).
	target         string // remote meshserve base URL; "" = in-process
	replicas       int
	policy         string
	sweepReplicas  string // "1,2,4" → one saturation search per fleet size
	makeInjector   func(i int) mesh.Injector
	chaosInstance  int64
	chaosKillEvery time.Duration
	chaosDowntime  time.Duration

	// Gray-failure resilience (-outage and friends, DESIGN.md §3.11).
	outage            string     // raw -outage spec for banners and bench docs
	outagePlan        outagePlan // parsed plan (already folded into makeInjector)
	outageCompare     bool
	outageMinRecovery float64
	recovery          fleet.Config // Hedge, Eject and ProbeInterval
}

// wlTarget is what the harness drives: an in-process fleet or a remote
// meshserve over HTTP. The harness itself is target-agnostic — arrival
// plans, SLO accounting, record/replay and the saturation search all run
// against this seam.
type wlTarget struct {
	desc   string
	side   int
	keys   int
	fleet  *fleet.Fleet // in-process fleet (nil for a remote target)
	stats  func() serve.Stats
	stages func() obs.StageSnapshot // nil when the target has no observer
	close  func()

	// Kind-typed seams: dispatch, the needle→typed-arguments mapping the
	// generator uses, and the per-kind host-oracle answer check.
	lookupKind func(ctx context.Context, kind serve.Kind, args serve.Args) (serve.Result, error)
	argsFor    func(serve.Kind, int64) serve.Args
	check      func(serve.Kind, serve.Args, serve.Result) bool
}

// newTarget builds the workload target from the flag set.
func newTarget(cfg serve.Config, f workloadFlags, replicas int, policyName string) (*wlTarget, error) {
	if f.target != "" {
		return newRemoteTarget(f)
	}
	return newFleetTarget(cfg, f, replicas, policyName)
}

// newFleetTarget builds an in-process fleet target, arming the instance
// chaos monkey when -chaos-instance is set (and the fleet is big enough for
// the monkey to ever fire).
func newFleetTarget(cfg serve.Config, f workloadFlags, replicas int, policyName string) (*wlTarget, error) {
	fc := fleetConfig(cfg, replicas, policyName, f.makeInjector, f.recovery)
	fl, err := fleet.New(fc)
	if err != nil {
		return nil, err
	}
	stopChaos := func() {}
	if f.chaosInstance != 0 && replicas >= 2 {
		stopChaos = fl.StartChaos(fleet.ChaosConfig{
			Seed: f.chaosInstance, KillEvery: f.chaosKillEvery, Downtime: f.chaosDowntime,
		})
	}
	t := &wlTarget{
		desc: fmt.Sprintf("fleet of %d %dx%d meshes (%s routing, %s model), %d keys",
			replicas, cfg.Side, cfg.Side, fc.Policy.Name(), cfg.Model, len(fl.Tree().Keys)),
		side:  cfg.Side,
		keys:  len(fl.Tree().Keys),
		fleet: fl,
		lookupKind: func(ctx context.Context, kind serve.Kind, args serve.Args) (serve.Result, error) {
			res, err := fl.LookupKind(ctx, kind, args)
			return res.Result, err
		},
		stats:   func() serve.Stats { return fl.Stats().Agg },
		argsFor: loadgen.StructureArgs(fl.Structures()),
		check:   loadgen.StructureChecker(fl.Structures()),
		close: func() {
			stopChaos()
			ctx, cancel := context30s()
			defer cancel()
			_ = fl.Shutdown(ctx)
		},
	}
	if o := fl.Observer(); o != nil {
		t.stages = o.Stages
	}
	return t, nil
}

// newRemoteTarget probes the remote server's shape and reconstructs the
// host oracle from it: meshserve always serves the default key set — the
// odd integers 1, 3, …, 2k−1 — so membership is decidable without shipping
// the dictionary over the wire.
func newRemoteTarget(f workloadFlags) (*wlTarget, error) {
	t := loadgen.NewHTTPTarget(f.target)
	// With -obs, every remote lookup carries a client-minted traceparent, so
	// a slow client-side sample can be found in the server's /debug/traces.
	t.Trace = f.trace
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	side, keys, err := t.Probe(ctx)
	if err != nil {
		return nil, fmt.Errorf("probing %s: %w", f.target, err)
	}
	// Structures are a deterministic function of (side, keys), so every
	// kind's oracle — not just membership — is rebuildable host-side without
	// shipping state over the wire. A remote serving kinds outside the mix
	// is fine; a remote NOT serving a mixed-in kind answers 400 and the run
	// fails visibly on the failed-query bar.
	ss, err := serve.BuildStructures(side, defaultKeySet(keys), 2, 3, f.kindMix().Kinds())
	if err != nil {
		return nil, fmt.Errorf("rebuilding the host oracle for %s: %w", f.target, err)
	}
	return &wlTarget{
		desc:       fmt.Sprintf("remote %s (%dx%d mesh, %d keys)", t.Base, side, side, keys),
		side:       side,
		keys:       keys,
		lookupKind: t.LookupKind,
		stats:      t.Stats,
		argsFor:    loadgen.StructureArgs(ss),
		check:      loadgen.StructureChecker(ss),
		close:      func() {},
	}, nil
}

// defaultKeySet is the key set meshserve always serves: the first k odd
// integers 1, 3, …, 2k−1.
func defaultKeySet(k int) []int64 {
	keys := make([]int64, k)
	for i := range keys {
		keys[i] = int64(2*i + 1)
	}
	return keys
}

// kindMix is f.mix with the nil default applied (membership only).
func (f workloadFlags) kindMix() *loadgen.KindMix {
	if f.mix == nil {
		return loadgen.SingleKind(serve.KindMembership)
	}
	return f.mix
}

// runConfig assembles the loadgen run config for this target.
func (t *wlTarget) runConfig(events []loadgen.TraceEvent, f workloadFlags) loadgen.Config {
	return loadgen.Config{
		LookupKind:  t.lookupKind,
		Stats:       t.stats,
		Stages:      t.stages,
		Events:      events,
		Window:      f.window,
		Deadline:    f.deadline,
		MaxInFlight: f.maxInFl,
		Check:       t.check,
	}
}

// runWorkload drives the target — an in-process fleet or a remote server —
// with an arrival process that does not wait for answers, reports
// per-window SLO metrics, and (optionally) binary-searches the saturation
// knee. Exit is non-zero on any oracle mismatch, failed query, or replay
// divergence.
func runWorkload(cfg serve.Config, f workloadFlags) error {
	if f.sweepReplicas != "" {
		return runSweep(cfg, f)
	}
	if f.outageCompare {
		return runOutageCompare(cfg, f)
	}
	t, err := newTarget(cfg, f, f.replicas, f.policy)
	if err != nil {
		return err
	}
	defer t.close()
	fmt.Printf("meshserve workload: %s arrivals%s, %s, window %s\n", f.mode, mixBanner(f), t.desc, f.window)

	if f.saturate {
		if f.mode == "replay" {
			return fmt.Errorf("-saturate replays nothing: use -workload poisson or burst")
		}
		kr, err := runSaturation(t, f)
		if err != nil {
			return err
		}
		if t.fleet != nil {
			printFleetStats(t.fleet.Stats())
		}
		if f.benchOut != "" {
			return writeBench(f.benchOut, cfg, f, t, nil, kr, nil)
		}
		return nil
	}

	var events []loadgen.TraceEvent
	var recorded []loadgen.TraceEvent // replay mode: the answer stream to reproduce
	switch f.mode {
	case "replay":
		if f.traceIn == "" {
			return fmt.Errorf("-workload replay needs -trace-in")
		}
		fh, err := os.Open(f.traceIn)
		if err != nil {
			return err
		}
		header, rec, err := loadgen.ReadTrace(fh)
		fh.Close()
		if err != nil {
			return err
		}
		if header.Side != t.side || header.Keys != t.keys {
			return fmt.Errorf("trace was recorded against a %dx%d mesh with %d keys; this target is %dx%d with %d",
				header.Side, header.Side, header.Keys, t.side, t.side, t.keys)
		}
		if header.Kinds != "" && f.kinds == "" {
			return fmt.Errorf("trace was recorded with a kind mix (%s); rerun with -kinds %q so the target serves those kinds",
				header.Kinds, header.Kinds)
		}
		recorded = rec
		events = loadgen.StripAnswers(rec)
		fmt.Printf("replaying %d arrivals recorded from a %s workload (seed %d)\n",
			len(events), header.Workload, header.Seed)
	case "poisson", "burst":
		events, err = generateEvents(f, t)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown -workload %q (want poisson, burst, or replay)", f.mode)
	}

	rep, err := loadgen.Run(t.runConfig(events, f))
	if err != nil {
		return err
	}
	printReport(rep)
	if t.fleet != nil {
		printFleetStats(t.fleet.Stats())
	}

	if recorded != nil {
		n, first := loadgen.CompareAnswers(recorded, events)
		if n > 0 {
			return fmt.Errorf("replay diverged from the recorded answer stream on %d of %d events: %v",
				n, len(recorded), first)
		}
		fmt.Printf("replay reproduced all %d recorded answers exactly (digest %.16s…)\n",
			len(recorded), rep.Digest)
	}
	if rep.Total.Mismatched > 0 {
		return fmt.Errorf("%d answers disagreed with the host oracle", rep.Total.Mismatched)
	}
	if rep.Total.Failed > 0 {
		return fmt.Errorf("%d queries failed", rep.Total.Failed)
	}

	if f.traceOut != "" && recorded == nil {
		fh, err := os.Create(f.traceOut)
		if err != nil {
			return err
		}
		header := loadgen.TraceHeader{Workload: f.mode, Side: t.side, Keys: t.keys, Seed: f.seed, Kinds: mixSpec(f)}
		werr := loadgen.WriteTrace(fh, header, events)
		if cerr := fh.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return werr
		}
		fmt.Printf("recorded %d arrivals + answers to %s\n", len(events), f.traceOut)
	}
	if f.benchOut != "" {
		if err := writeBench(f.benchOut, cfg, f, t, rep, nil, nil); err != nil {
			return err
		}
	}
	return nil
}

// generateEvents materializes the arrival plan from the flag set: each
// arrival draws its kind from the mix and its needle from the popularity
// draw, and the target's own argument mapping turns the pair into typed
// query arguments.
func generateEvents(f workloadFlags, t *wlTarget) ([]loadgen.TraceEvent, error) {
	sched, err := loadgen.ParseSchedule(f.rate, f.dur)
	if err != nil {
		return nil, err
	}
	var arr *loadgen.Arrivals
	switch f.mode {
	case "poisson":
		arr, err = loadgen.Poisson(sched, f.seed)
	case "burst":
		arr, err = loadgen.Bursty(sched, f.on, f.off, f.seed)
	default:
		return nil, fmt.Errorf("unknown workload %q", f.mode)
	}
	if err != nil {
		return nil, err
	}
	keys, err := keyDraw(f, t.keys)
	if err != nil {
		return nil, err
	}
	return loadgen.GenerateMix(arr, keys, f.kindMix(), t.argsFor, f.seed, 0)
}

func keyDraw(f workloadFlags, nKeys int) (loadgen.KeyDraw, error) {
	if f.zipf > 0 {
		return loadgen.ZipfKeys(nKeys, f.zipf, f.seed)
	}
	return loadgen.UniformKeys(nKeys, f.seed)
}

// runSaturation binary-searches the knee: max offered rate whose whole probe
// run meets the SLO. Probes share one long-lived target (the realistic
// capacity question) with fresh arrival plans per rate.
func runSaturation(t *wlTarget, f workloadFlags) (*loadgen.KneeReport, error) {
	slo := loadgen.SLO{P99: f.sloP99, MaxDegraded: f.sloDegraded, MaxRejected: f.sloRejected}
	startRate, err := firstScheduleRate(f)
	if err != nil {
		return nil, err
	}
	fmt.Printf("saturation search: SLO p99 < %s, degraded ≤ %.2f%%, rejected ≤ %.2f%%; probes %s at %g qps and up\n",
		slo.P99, 100*slo.MaxDegraded, 100*slo.MaxRejected, f.probeDur, startRate)
	fmt.Printf("%10s %6s %12s %10s %10s %10s %10s  %s\n",
		"rate", "pass", "achieved/s", "p50", "p99", "p999", "degraded", "reason")
	probeIdx := 0
	run := func(rate float64) (*loadgen.Report, error) {
		probeIdx++
		pf := f
		pf.rate = fmt.Sprintf("%g", rate)
		pf.dur = f.probeDur
		pf.seed = f.seed + int64(probeIdx) // decorrelate probes, still deterministic
		events, err := generateEvents(pf, t)
		if err != nil {
			return nil, err
		}
		rep, err := loadgen.Run(t.runConfig(events, pf))
		if err != nil {
			return nil, err
		}
		pass, reason := slo.Pass(rep)
		tt := rep.Total
		degFrac := 0.0
		if tt.Answered > 0 {
			degFrac = float64(tt.Degraded) / float64(tt.Answered)
		}
		fmt.Printf("%10.1f %6v %12.0f %10s %10s %10s %9.2f%%  %s\n",
			rate, pass, tt.AchievedQPS, tt.P50.Round(time.Microsecond), tt.P99.Round(time.Microsecond),
			tt.P999.Round(time.Microsecond), 100*degFrac, reason)
		return rep, nil
	}
	kr, err := loadgen.Saturate(run, startRate, f.satMax, f.satBisect, slo)
	if err != nil {
		return nil, err
	}
	if kr.Capped {
		fmt.Printf("knee: ≥ %.1f qps (search capped at -sat-max before the SLO broke)\n", kr.Knee)
	} else {
		fmt.Printf("knee: %.1f qps — the max sustainable rate under the SLO (%d probes)\n", kr.Knee, len(kr.Probes))
	}
	return kr, nil
}

// sweepEntry is one point of the capacity-planning sweep: the saturation
// knee of one fleet size under one routing policy (EXPERIMENTS.md E23).
type sweepEntry struct {
	Replicas int     `json:"replicas"`
	Policy   string  `json:"policy"`
	KneeQPS  float64 `json:"knee_qps"`
	Capped   bool    `json:"capped"`
	Probes   int     `json:"probes"`
}

// runSweep is the capacity-planning mode (-sweep-replicas): one saturation
// search per (policy, fleet size) point, each against a fresh fleet.
// -policy all sweeps every routing policy.
func runSweep(cfg serve.Config, f workloadFlags) error {
	counts, err := parseReplicaCounts(f.sweepReplicas)
	if err != nil {
		return err
	}
	policies := []string{f.policy}
	if f.policy == "all" {
		policies = fleet.PolicyNames()
	}
	fmt.Printf("meshserve capacity sweep: %dx%d meshes, replicas %v, policies %v\n",
		cfg.Side, cfg.Side, counts, policies)
	var entries []sweepEntry
	for _, pol := range policies {
		for _, n := range counts {
			t, err := newTarget(cfg, f, n, pol)
			if err != nil {
				return err
			}
			fmt.Printf("\n--- %s ---\n", t.desc)
			kr, err := runSaturation(t, f)
			t.close()
			if err != nil {
				return err
			}
			entries = append(entries, sweepEntry{
				Replicas: n, Policy: pol, KneeQPS: kr.Knee,
				Capped: kr.Capped, Probes: len(kr.Probes),
			})
		}
	}
	fmt.Printf("\n%16s %9s %12s\n", "policy", "replicas", "knee qps")
	for _, e := range entries {
		capped := ""
		if e.Capped {
			capped = " (capped)"
		}
		fmt.Printf("%16s %9d %12.1f%s\n", e.Policy, e.Replicas, e.KneeQPS, capped)
	}
	if f.benchOut != "" {
		return writeBench(f.benchOut, cfg, f, nil, nil, nil, entries)
	}
	return nil
}

// mixSpec is the canonical (normalized-weight) rendering of the -kinds flag,
// or "" when the workload is membership only — the form recorded in trace
// headers and bench docs.
func mixSpec(f workloadFlags) string {
	if f.kinds == "" {
		return ""
	}
	return f.kindMix().String()
}

// mixBanner is the ", kind mix …" fragment of the workload banner.
func mixBanner(f workloadFlags) string {
	if f.kinds == "" {
		return ""
	}
	return fmt.Sprintf(" (kind mix %s)", f.kindMix().String())
}

// firstScheduleRate extracts the saturation search's starting rate from the
// -rate spec (its first phase's rate).
func firstScheduleRate(f workloadFlags) (float64, error) {
	sched, err := loadgen.ParseSchedule(f.rate, f.dur)
	if err != nil {
		return 0, err
	}
	for _, p := range sched {
		if p.Rate > 0 {
			return p.Rate, nil
		}
	}
	return 0, fmt.Errorf("schedule offers no load")
}

// printReport renders the per-window table and totals of one open-loop run.
func printReport(rep *loadgen.Report) {
	fmt.Printf("%8s %11s %12s %10s %10s %10s %10s %9s %5s %5s %5s %5s\n",
		"window", "offered/s", "achieved/s", "p50", "p95", "p99", "p999", "steps/q", "rej", "shed", "degr", "fail")
	row := func(label string, w loadgen.WindowStats) {
		stepsPerQ := w.SimStepsPerQuery
		fmt.Printf("%8s %11.0f %12.0f %10s %10s %10s %10s %9.0f %5d %5d %5d %5d\n",
			label, w.OfferedQPS, w.AchievedQPS,
			w.P50.Round(time.Microsecond), w.P95.Round(time.Microsecond),
			w.P99.Round(time.Microsecond), w.P999.Round(time.Microsecond),
			stepsPerQ, w.Rejected, w.Shed, w.Degraded, w.Failed)
	}
	for _, w := range rep.Windows {
		row(w.Start.Round(time.Millisecond).String(), w)
	}
	row("total", rep.Total)
	if len(rep.Kinds) > 1 {
		names := make([]string, 0, len(rep.Kinds))
		for name := range rep.Kinds {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			row("·"+name, *rep.Kinds[name])
		}
	}
	fmt.Printf("answered %d/%d offered in %s (answer digest %.16s…)\n",
		rep.Total.Answered, rep.Total.Offered, rep.Wall.Round(time.Millisecond), rep.Digest)
	printStageBreakdown(rep)
}

// printStageBreakdown renders the whole-run mean wall-clock per stage per
// answered query (the decomposition of internal/obs), when the target had an
// observer to sample: where a query's latency actually went — queueing,
// lingering, mesh rounds, retries, failovers — not just what it totalled.
func printStageBreakdown(rep *loadgen.Report) {
	if len(rep.Total.StageNS) == 0 {
		return
	}
	fmt.Printf("stage means per answered query:")
	for _, name := range obs.StageNames() {
		ns, ok := rep.Total.StageNS[name]
		if !ok {
			continue
		}
		fmt.Printf("  %s %s", name, time.Duration(ns).Round(time.Microsecond))
	}
	fmt.Println()
}

// benchDoc is the machine-readable result trajectory entry (BENCH_PR6.json,
// BENCH_PR7.json).
type benchDoc struct {
	PR         int                 `json:"pr"`
	Title      string              `json:"title"`
	Harness    string              `json:"harness"`
	Mode       string              `json:"mode"`
	Side       int                 `json:"side"`
	RateSpec   string              `json:"rate_spec"`
	Zipf       float64             `json:"zipf_s,omitempty"`
	Kinds      string              `json:"kinds,omitempty"`
	Seed       int64               `json:"seed"`
	Window     string              `json:"window"`
	Target     string              `json:"target,omitempty"`
	Replicas   int                 `json:"replicas,omitempty"`
	Policy     string              `json:"policy,omitempty"`
	Outage     string              `json:"outage,omitempty"`
	Report     *loadgen.Report     `json:"report,omitempty"`
	Saturation *loadgen.KneeReport `json:"saturation,omitempty"`
	Sweep      []sweepEntry        `json:"sweep,omitempty"`
	Fleet      *fleet.Stats        `json:"fleet,omitempty"`
	Compare    *compareDoc         `json:"compare,omitempty"`
}

func writeBench(path string, cfg serve.Config, f workloadFlags, t *wlTarget, rep *loadgen.Report, kr *loadgen.KneeReport, sweep []sweepEntry) error {
	doc := benchDoc{
		PR:       6,
		Title:    "Open-loop workload & SLO harness (E22)",
		Harness:  "meshserve -workload (internal/loadgen)",
		Mode:     f.mode,
		Side:     cfg.Side,
		RateSpec: f.rate,
		Zipf:     f.zipf,
		Kinds:    mixSpec(f),
		Seed:     f.seed,
		Window:   f.window.String(),
		Target:   f.target,
		Report:   rep,
	}
	if f.replicas > 1 || f.target != "" || sweep != nil {
		doc.PR = 7
		doc.Title = "Replicated fleet capacity & failover (E23)"
	}
	if f.kinds != "" {
		doc.PR = 9
		doc.Title = "Typed query-kind serving (E25)"
	}
	if f.outage != "" {
		doc.PR = 10
		doc.Title = "Gray-failure resilience: hedging + latency ejection (E26)"
		doc.Outage = f.outage
	}
	if kr != nil {
		doc.Saturation = kr
	}
	if sweep != nil {
		doc.Sweep = sweep
	}
	if t != nil && t.fleet != nil {
		doc.Replicas = t.fleet.Replicas()
		doc.Policy = f.policy
		fst := t.fleet.Stats()
		doc.Fleet = &fst
	}
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(fh)
	enc.SetIndent("", "  ")
	werr := enc.Encode(doc)
	if cerr := fh.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		fmt.Printf("wrote %s\n", path)
	}
	return werr
}

// parseReplicaCounts parses -sweep-replicas: comma-separated fleet sizes.
func parseReplicaCounts(spec string) ([]int, error) {
	var out []int
	for _, field := range strings.Split(spec, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(field))
		if err != nil || n < 1 || n > fleet.MaxReplicas {
			return nil, fmt.Errorf("-sweep-replicas: bad fleet size %q (want 1..%d)", field, fleet.MaxReplicas)
		}
		out = append(out, n)
	}
	return out, nil
}
