// Command meshserve runs the batched multisearch query service (internal/
// serve, DESIGN.md §3.5): long-lived meshes holding a (2,3)-tree dictionary,
// answering concurrent membership lookups by collecting them into batches
// and serving each batch with one multisearch round. It always serves
// through a fleet (internal/fleet): -replicas instances, one by default,
// behind the router, failover ladder and HTTP surface.
//
// Serve mode (default) exposes the HTTP surface and drains gracefully on
// SIGINT/SIGTERM:
//
//	meshserve -side 16 -batch-linger 2ms -budget 1e6 -addr :8845
//	curl 'localhost:8845/search?key=7'
//	curl  localhost:8845/metrics
//
// Workload mode (-workload, DESIGN.md §3.7) is the load generator:
// arrivals follow a seeded Poisson or ON/OFF-bursty process whose clock does
// not wait for answers, so queueing delay and saturation become observable.
// Every answer is verified against the host-side oracle; any mismatch or
// failed query fails the run. With -chaos N the serving meshes run under
// seeded fault injection (audit mode is forced on so faults trip the
// recovery ladder of DESIGN.md §3.6 instead of corrupting answers). The
// run reports per-window latency percentiles, offered vs achieved qps,
// steps/query, and degraded/rejected fractions; -trace-out records the
// arrival plan plus the answer stream to JSONL, -workload replay -trace-in
// re-runs it and requires the answers to reproduce exactly; -saturate
// binary-searches the max sustainable rate under an SLO and prints the knee
// (EXPERIMENTS.md E22):
//
//	meshserve -workload poisson -rate 400 -side 16 -chaos 42 -chaos-p 0.02
//	meshserve -workload poisson -rate 200x2s,800x500ms,200x2s -side 16 -trace-out run.jsonl
//	meshserve -workload replay -trace-in run.jsonl -side 16
//	meshserve -workload poisson -rate 256 -saturate -slo-p99 50ms -bench-out BENCH_PR6.json
//
// With -replicas N (DESIGN.md §3.8) the fleet runs N instances behind a
// health-aware router (-policy round-robin | least-loaded | health-weighted).
// A lookup whose replica faults or crashes fails over to a healthy replica
// before the fleet-level oracle; -chaos-instance kills and restarts replicas
// on a seeded schedule while /healthz stays 200 as long as one replica is
// healthy. The workload harness drives a fleet in-process, or any remote
// meshserve over HTTP with -target:
//
//	meshserve -side 8 -replicas 3 -policy health-weighted -chaos-instance 42
//	meshserve -workload poisson -rate 600 -side 8 -replicas 3 -policy least-loaded
//	meshserve -workload poisson -rate 300 -target http://127.0.0.1:8845
//	meshserve -workload poisson -rate 200 -saturate -sweep-replicas 1,2,4 \
//	    -policy all -bench-out BENCH_PR7.json
//
// Every query family of the paper is servable as a typed kind (-kinds,
// DESIGN.md §3.10): membership, pointloc, interval, linepoly, tangent. Serve
// mode loads each requested kind's structure onto the shared mesh and /search
// gains a kind= parameter (membership stays the default, so v1 clients keep
// working); the workload harness draws each arrival's kind from the weighted
// mix and checks every answer against that kind's own host oracle
// (EXPERIMENTS.md E25):
//
//	meshserve -side 16 -kinds membership,pointloc,interval
//	curl 'localhost:8845/search?kind=pointloc&x=12&y=7'
//	meshserve -workload poisson -rate 400 -side 16 \
//	    -kinds membership:0.6,pointloc:0.3,interval:0.1 -bench-out BENCH_PR9.json
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/loadgen"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/trace"
)

func main() {
	side := flag.Int("side", 16, "mesh side length (power of two)")
	linger := flag.Duration("batch-linger", 2*time.Millisecond, "how long a round waits to fill its batch after the first query (0 = start immediately)")
	budget := flag.Float64("budget", 0, "per-round mesh step budget (0 = unlimited)")
	addr := flag.String("addr", ":8845", "HTTP listen address (serve mode)")
	model := flag.String("model", "counted", "cost model: counted | theoretical")
	maxBatch := flag.Int("max-batch", 0, "max queries per round (0 = mesh size)")
	queueDepth := flag.Int("queue", 0, "admission queue depth (0 = 4×max-batch)")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain deadline")
	seed := flag.Int64("seed", 1, "arrival-plan and key-draw seed (workload)")
	audit := flag.Bool("audit", false, "run every round in audit mode (forced on by -chaos)")
	chaos := flag.Int64("chaos", 0, "inject seeded faults with this seed (non-zero; see internal/faults)")
	chaosP := flag.Float64("chaos-p", 0.01, "per-consultation fault probability for -chaos")
	chaosLimit := flag.Int("chaos-limit", 0, "stop injecting after this many faults (0 = unlimited)")
	retries := flag.Int("retries", 0, "audited re-executions per failed round (0 = default 3, negative = none)")
	breakerWindow := flag.Int("breaker-window", 0, "circuit-breaker sliding window, in rounds (0 = default 16)")
	canaryInterval := flag.Duration("canary-interval", 0, "how often the fleet prober runs a canary on each circuit-open replica and times a lookup on each ejected one (≤ 0 = default 50ms)")
	queryDeadline := flag.Duration("query-deadline", 5*time.Second, "per-query deadline for workload lookups (0 = 5s)")
	obsOn := flag.Bool("obs", true, "request tracing + per-stage wall-clock metrics (internal/obs; /debug/traces, Prometheus /metrics?format=prometheus)")
	obsRing := flag.Int("obs-ring", 256, "retained-trace ring size for /debug/traces (-obs)")
	obsLog := flag.Bool("obs-log", false, "log interesting trace completions (slow/degraded/failover/error) to stderr (-obs)")
	kindsFlag := flag.String("kinds", "", "query-kind mix served and generated: \"membership:0.6,pointloc:0.3,interval:0.1\" or \"membership,pointloc\" (empty = membership only; see DESIGN.md §3.10)")

	replicas := flag.Int("replicas", 1, "fleet size: run this many instances behind a router (see DESIGN.md §3.8)")
	policy := flag.String("policy", "round-robin", "fleet routing policy: round-robin | least-loaded | health-weighted (or 'all' with -sweep-replicas)")
	chaosInstance := flag.Int64("chaos-instance", 0, "kill/restart replicas on this seeded schedule (non-zero; needs -replicas ≥ 2)")
	chaosKillEvery := flag.Duration("chaos-kill-every", 500*time.Millisecond, "mean interval between instance kills (-chaos-instance)")
	chaosDowntime := flag.Duration("chaos-downtime", 250*time.Millisecond, "how long a killed instance stays down before restart (-chaos-instance)")

	outage := flag.String("outage", "", "gray-failure schedule: per-replica latency injection, e.g. \"slow:r1:10x@2s,stall:r2@5s\" (needs -replicas ≥ 2; see DESIGN.md §3.11)")
	hedge := flag.Bool("hedge", false, "hedge slow dispatches: speculatively re-dispatch to a second replica after the hedge delay, first answer wins (§3.11)")
	hedgeDelay := flag.Duration("hedge-delay", 0, "fixed hedge delay (0 = adaptive: -hedge-p99x × the median per-replica p99)")
	hedgeP99x := flag.Float64("hedge-p99x", 3, "adaptive hedge delay multiple of the per-replica p99 median (-hedge)")
	eject := flag.Bool("eject", false, "eject latency-outlier replicas from routing until canary probes re-admit them (§3.11)")
	ejectMultiple := flag.Float64("eject-multiple", 4, "eject a replica whose EWMA latency exceeds this multiple of the fleet median (-eject)")
	outageCompare := flag.Bool("outage-compare", false, "run the -outage plan twice over the same arrival plan — plain failover vs hedging+ejection — and report the p99 recovery ratio (workload)")
	outageMinRecovery := flag.Float64("outage-min-recovery", 0, "fail unless the -outage-compare p99 recovery ratio reaches this bound (0 = report only)")

	workload := flag.String("workload", "", "open-loop workload mode: poisson | burst | replay (see DESIGN.md §3.7)")
	target := flag.String("target", "", "drive a remote meshserve at this base URL (e.g. http://host:8845) instead of an in-process server (workload; remote must serve the default key set)")
	sweepReplicas := flag.String("sweep-replicas", "", "capacity-planning sweep: comma-separated replica counts, one saturation search each (workload -saturate)")
	rate := flag.String("rate", "256", "offered-rate schedule, qps: \"400\" or \"200x2s,800x500ms,200x2s\" (workload)")
	workloadDur := flag.Duration("workload-dur", 4*time.Second, "duration of bare-rate schedule phases (workload)")
	window := flag.Duration("window", time.Second, "reporting window for per-window percentiles (workload)")
	burstOn := flag.Duration("on", 200*time.Millisecond, "burst ON-window length (workload burst)")
	burstOff := flag.Duration("off", 200*time.Millisecond, "burst OFF-window length (workload burst)")
	zipf := flag.Float64("zipf", 0, "Zipfian key-popularity exponent, > 1 (0 = uniform; workload)")
	maxInflight := flag.Int("max-inflight", 0, "client-side cap on outstanding open-loop lookups (0 = 4096; workload)")
	traceOut := flag.String("trace-out", "", "record the arrival plan + answers to this JSONL file (workload poisson|burst)")
	traceIn := flag.String("trace-in", "", "replay this recorded JSONL trace (workload replay)")
	benchOut := flag.String("bench-out", "", "write the machine-readable run report to this JSON file (workload)")
	saturate := flag.Bool("saturate", false, "binary-search the max sustainable rate under the SLO instead of a single run (workload)")
	sloP99 := flag.Duration("slo-p99", 50*time.Millisecond, "SLO: answered-query p99 latency bound (saturate)")
	sloDegraded := flag.Float64("slo-degraded", 0.01, "SLO: max degraded fraction of answered queries (saturate)")
	sloRejected := flag.Float64("slo-rejected", 0.01, "SLO: max rejected+shed fraction of offered queries (saturate)")
	satBisect := flag.Int("sat-bisect", 5, "bisection refinements after the SLO first breaks (saturate)")
	satMax := flag.Float64("sat-max", 1e6, "rate ceiling for the saturation search, qps (saturate)")
	probeDur := flag.Duration("probe-dur", 2*time.Second, "measurement window per saturation probe (saturate)")
	flag.Parse()

	// -budget parses as float64 so 1e6-style spellings work, but the serve
	// layer counts integral steps: validate instead of silently truncating
	// (a -budget 0.5 used to become 0 = unlimited — the opposite of asked).
	if *budget < 0 || *budget != math.Trunc(*budget) || *budget > math.MaxInt64 {
		fmt.Fprintf(os.Stderr, "meshserve: -budget must be a non-negative integral step count, got %v\n", *budget)
		os.Exit(2)
	}

	// The kind mix configures both ends: the serve layer loads the mix's
	// structures, the workload harness draws arrivals from its weights.
	mix, err := loadgen.ParseKindMix(*kindsFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "meshserve: %v\n", err)
		os.Exit(2)
	}

	cfg := serve.Config{
		Side:          *side,
		Kinds:         mix.Kinds(),
		Linger:        *linger,
		Budget:        int64(*budget),
		MaxBatch:      *maxBatch,
		QueueDepth:    *queueDepth,
		MaxRetries:    *retries,
		BreakerWindow: *breakerWindow,
	}
	switch *model {
	case "counted":
		cfg.Model = mesh.CostCounted
	case "theoretical":
		cfg.Model = mesh.CostTheoretical
	default:
		fmt.Fprintf(os.Stderr, "meshserve: unknown cost model %q\n", *model)
		os.Exit(2)
	}
	var makeInjector func(i int) mesh.Injector
	if *chaos != 0 {
		p := *chaosP
		// Replicas must not share one injector (their fault streams would
		// couple through its state): derive one per instance from the same
		// seed — replica 0 gets the seed itself — each with the full
		// per-instance fault budget.
		makeInjector = func(i int) mesh.Injector {
			return faults.New(faults.Config{
				Seed: *chaos + int64(i)*1_000_003, PSortLie: p, PCorrupt: p, PDrop: p, PDup: p, Limit: *chaosLimit,
			})
		}
		if !*audit {
			fmt.Fprintln(os.Stderr, "meshserve: -chaos forces -audit on (faults must trip the audit, not corrupt answers)")
			*audit = true
		}
		// Satellite of §3.11: the retry ladder's backoff jitter draws from a
		// chaos-derived seed, so a chaos run's whole recovery timeline —
		// faults AND backoff sleeps — replays deterministically.
		cfg.BackoffSeed = *chaos
	}
	cfg.Audit = *audit

	// One observer serves the whole fleet, so the SLO burn gauges measure
	// the same targets the saturation search enforces.
	if *obsOn {
		oc := obs.Config{Ring: *obsRing, SLOP99: *sloP99, SLOMaxDegraded: *sloDegraded}
		// Under a kind mix the stage histograms split per kind (the class
		// index is the kind value); without one the observer keeps its v1
		// single-class shape so /metrics output is byte-compatible.
		if *kindsFlag != "" {
			oc.Classes = serve.KindNames()
		}
		if *obsLog {
			oc.Logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelInfo}))
		}
		cfg.Obs = obs.New(oc)
	}

	if *replicas < 1 || *replicas > fleet.MaxReplicas {
		fmt.Fprintf(os.Stderr, "meshserve: -replicas must be in [1, %d], got %d\n", fleet.MaxReplicas, *replicas)
		os.Exit(2)
	}
	if *policy == "all" {
		if *sweepReplicas == "" {
			fmt.Fprintln(os.Stderr, "meshserve: -policy all only makes sense with -sweep-replicas (one search per policy)")
			os.Exit(2)
		}
	} else if _, err := fleet.PolicyByName(*policy); err != nil {
		fmt.Fprintf(os.Stderr, "meshserve: %v\n", err)
		os.Exit(2)
	}
	if *chaosInstance != 0 && *replicas < 2 {
		fmt.Fprintln(os.Stderr, "meshserve: -chaos-instance needs -replicas ≥ 2 (the monkey never kills the last replica)")
		os.Exit(2)
	}
	var outagePlanParsed outagePlan
	if *outage != "" {
		if *replicas < 2 {
			fmt.Fprintln(os.Stderr, "meshserve: -outage needs -replicas ≥ 2 (gray-failure resilience is routing around a slow replica)")
			os.Exit(2)
		}
		plan, err := parseOutage(*outage, *replicas, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "meshserve: %v\n", err)
			os.Exit(2)
		}
		outagePlanParsed = plan
		// Unlike -chaos this does NOT force -audit: latency injection is a
		// gray failure — every answer stays correct, no audit would trip.
		makeInjector = plan.makeInjector(makeInjector)
	}
	if *outageCompare && (*outage == "" || *workload == "") {
		fmt.Fprintln(os.Stderr, "meshserve: -outage-compare needs -outage and -workload (it reruns one arrival plan with and without hedging+ejection)")
		os.Exit(2)
	}
	recovery := fleet.Config{
		Hedge:         fleet.HedgeConfig{Enabled: *hedge, Delay: *hedgeDelay, P99Multiple: *hedgeP99x},
		Eject:         fleet.EjectConfig{Enabled: *eject, Multiple: *ejectMultiple},
		ProbeInterval: *canaryInterval,
	}
	if *target != "" {
		if *workload == "" {
			fmt.Fprintln(os.Stderr, "meshserve: -target needs -workload (the HTTP driver is part of the open-loop harness)")
			os.Exit(2)
		}
		if *replicas > 1 || *chaosInstance != 0 || *sweepReplicas != "" {
			fmt.Fprintln(os.Stderr, "meshserve: -target drives a remote server; -replicas/-chaos-instance/-sweep-replicas configure in-process fleets")
			os.Exit(2)
		}
	}
	if *sweepReplicas != "" && !*saturate {
		fmt.Fprintln(os.Stderr, "meshserve: -sweep-replicas needs -saturate (it runs one saturation search per fleet size)")
		os.Exit(2)
	}
	if *workload != "" {
		f := workloadFlags{
			mode: *workload, rate: *rate, dur: *workloadDur, window: *window,
			on: *burstOn, off: *burstOff, zipf: *zipf, seed: *seed,
			deadline: *queryDeadline, maxInFl: *maxInflight,
			kinds: *kindsFlag, mix: mix,
			traceOut: *traceOut, traceIn: *traceIn, benchOut: *benchOut,
			saturate: *saturate, sloP99: *sloP99, sloDegraded: *sloDegraded,
			sloRejected: *sloRejected, satBisect: *satBisect, satMax: *satMax,
			probeDur: *probeDur,
			trace:    *obsOn,
			target:   *target, replicas: *replicas, policy: *policy,
			sweepReplicas: *sweepReplicas, makeInjector: makeInjector,
			chaosInstance: *chaosInstance, chaosKillEvery: *chaosKillEvery,
			chaosDowntime: *chaosDowntime,
			outage:        *outage, outagePlan: outagePlanParsed,
			outageCompare: *outageCompare, outageMinRecovery: *outageMinRecovery,
			recovery: recovery,
		}
		if err := runWorkload(cfg, f); err != nil {
			fmt.Fprintf(os.Stderr, "meshserve: %v\n", err)
			os.Exit(1)
		}
		return
	}
	fc := fleetConfig(cfg, *replicas, *policy, makeInjector, recovery)
	monkey := fleet.ChaosConfig{Seed: *chaosInstance, KillEvery: *chaosKillEvery, Downtime: *chaosDowntime}
	if err := runServeFleet(fc, *addr, *drain, monkey); err != nil {
		fmt.Fprintf(os.Stderr, "meshserve: %v\n", err)
		os.Exit(1)
	}
}

// fleetConfig assembles the fleet template from the per-instance serve
// config and the recovery settings (hedging, ejection, probe interval):
// every replica gets its own tracer (a tracer records one mesh) and, under
// -chaos, its own derived fault injector.
func fleetConfig(cfg serve.Config, replicas int, policyName string, makeInjector func(i int) mesh.Injector, recovery fleet.Config) fleet.Config {
	pol, err := fleet.PolicyByName(policyName)
	if err != nil {
		pol = fleet.RoundRobin() // validated in main; sweep passes "all"
	}
	fc := recovery
	fc.Replicas = replicas
	fc.Instance = cfg
	fc.Policy = pol
	fc.MakeInjector = makeInjector
	fc.MakeTracer = func(int) *trace.Tracer { return trace.New() }
	// Unlike tracers and injectors, the observer is deliberately shared: a
	// failed-over request's trace must accumulate stage marks from every
	// replica it touched, in one place.
	fc.Obs = cfg.Obs
	return fc
}

// runServeFleet is serve mode: the fleet HTTP surface until SIGINT/SIGTERM,
// then a bounded parallel drain that answers every admitted query on every
// replica before exiting.
func runServeFleet(fc fleet.Config, addr string, drain time.Duration, chaos fleet.ChaosConfig) error {
	f, err := fleet.New(fc)
	if err != nil {
		return err
	}
	stopChaos := func() {}
	if chaos.Seed != 0 {
		stopChaos = f.StartChaos(chaos)
		fmt.Fprintf(os.Stderr, "meshserve: instance chaos armed (seed %d, kill ~%s, down %s)\n",
			chaos.Seed, chaos.KillEvery, chaos.Downtime)
	}
	httpSrv := &http.Server{Addr: addr, Handler: f.Handler()}
	httpErr := make(chan error, 1)
	go func() { httpErr <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "meshserve: fleet of %d %dx%d meshes (%s routing), %d keys, kinds %s, serving on %s (/search /healthz /metrics; SIGINT drains)\n",
		f.Replicas(), fc.Instance.Side, fc.Instance.Side, fc.Policy.Name(), len(f.Tree().Keys), kindNamesOf(f.Kinds()), addr)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
	case err := <-httpErr:
		stopChaos()
		return fmt.Errorf("http server: %w", err)
	}
	stop()
	stopChaos()

	fmt.Fprintf(os.Stderr, "meshserve: draining fleet (deadline %s)\n", drain)
	dctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	drainErr := f.Shutdown(dctx)
	_ = httpSrv.Close()
	printFleetStats(f.Stats())
	if drainErr != nil {
		return fmt.Errorf("drain incomplete: %w", drainErr)
	}
	return nil
}

// printFleetStats reports the routing/failover/chaos counters of a fleet
// run, and the recovery ladder's work (DESIGN.md §3.6) when any of it ran.
func printFleetStats(st fleet.Stats) {
	agg := st.Agg
	fmt.Fprintf(os.Stderr,
		"meshserve: fleet served %d dispatches (%d failover-served, %d oracle, %d overloaded, %d unrouted), agg %d queries in %d rounds, %d simulated steps, health %s\n",
		st.Dispatched, st.FailoverServed, st.OracleServed, st.OverloadedAll, st.Unrouted,
		agg.Served, agg.Rounds, agg.SimSteps, st.Health)
	faults := agg.FaultsAudit + agg.FaultsBudget + agg.FaultsCanceled + agg.FaultsPanic + agg.FaultsOther
	if faults+agg.Retries+agg.CircuitOpens+agg.CanaryRounds > 0 {
		fmt.Fprintf(os.Stderr,
			"meshserve: recovery — %d faulted round attempts, %d retries, %d rounds recovered, circuit %d opens/%d closes, canaries %d (%d failed)\n",
			faults, agg.Retries, agg.Recovered,
			agg.CircuitOpens, agg.CircuitCloses, agg.CanaryRounds, agg.CanaryFails)
	}
	if st.Crashes > 0 || st.Restarts > 0 {
		fmt.Fprintf(os.Stderr,
			"meshserve: chaos — %d crashes, %d restarts, time-to-healthy last %s / max %s\n",
			st.Crashes, st.Restarts,
			st.LastTimeToHealthy.Round(time.Millisecond), st.MaxTimeToHealthy.Round(time.Millisecond))
	}
	if st.Hedges > 0 || st.Ejections > 0 || st.BudgetShed > 0 || st.Agg.BudgetShed > 0 {
		fmt.Fprintf(os.Stderr,
			"meshserve: gray-failure — %d hedges (%d won), %d ejections / %d readmissions (%d probes), budget shed %d fleet + %d instance\n",
			st.Hedges, st.HedgeWins, st.Ejections, st.Readmissions, st.EjectProbes,
			st.BudgetShed, st.Agg.BudgetShed)
	}
}

// kindNamesOf renders a served-kind list for banners.
func kindNamesOf(kinds []serve.Kind) string {
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = k.String()
	}
	return strings.Join(names, ",")
}
