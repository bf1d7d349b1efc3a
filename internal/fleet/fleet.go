// Package fleet runs N serve.Instances — each its own mesh, dictionary,
// recovery ladder, breaker state and stats — behind a health-aware router
// (DESIGN.md §3.8). It is the step from "a server" to "a cluster": replicas
// multiply read throughput past one mesh's knee, and they change the robust
// answer to a mesh fault from *degrade* to *failover*.
//
// The recovery ladder has one rung inside the instance (§3.6) and two
// above it, here:
//
//	retry-local  — the instance re-executes a faulted round with auditing
//	               forced on, then surfaces the typed fault (its breaker
//	               opens on a terminal failure and fails later batches fast
//	               with serve.ErrCircuitOpen);
//	failover     — a lookup whose instance faulted, tripped its breaker, or
//	               crashed outright is re-dispatched to a healthy replica;
//	oracle       — only when no replica can answer does the fleet fall back
//	               to its host-side oracle (Degraded answers).
//
// One prober goroutine per fleet brings distrusted replicas back: every
// ProbeInterval it asks each circuit-open replica for an audited canary
// round (serve.Instance.Probe) and times a lookup on each latency-ejected
// one. Routing is pluggable (round-robin, least-loaded by admission-queue
// depth, health-weighted by breaker state); lame-duck and crashed replicas
// are routed around while the prober — or a restart — brings them back.
// Replica crash/restart is chaos-injectable (StartChaos) with measured
// time-to-healthy.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dict"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/trace"
)

// ErrNoReplica is returned (only with DisableOracle) when no routable
// replica exists and the fleet has no oracle rung to absorb the lookup.
var ErrNoReplica = errors.New("fleet: no routable replica")

// MaxReplicas is the routing limit: the dispatch loop tracks which replicas
// a lookup has already tried in a single 64-bit word, so replica indices
// must fit in one word's bit positions.
const MaxReplicas = 64

// ReplicaLimitError is the typed construction error for a Config whose
// Replicas exceeds MaxReplicas. It is a distinct type (not a wrapped
// sentinel) so callers building fleets from external configuration can
// errors.As it and clamp rather than string-match — previously the
// constructor formatted an anonymous error, and one configuration path
// skipped the check entirely, letting a 65-replica fleet silently alias
// replica 64's tried-bit onto replica 0.
type ReplicaLimitError struct {
	Replicas int // the rejected replica count
}

func (e *ReplicaLimitError) Error() string {
	return fmt.Sprintf("fleet: at most %d replicas (failover tracks tried replicas in one word), got %d", MaxReplicas, e.Replicas)
}

// Config configures a Fleet.
type Config struct {
	// Replicas is the instance count (default 1; at most 64 — the dispatch
	// loop tracks tried replicas in a word).
	Replicas int
	// Instance is the per-instance serve.Config template. Tracer and
	// Injector are per-instance concerns — see MakeTracer / MakeInjector.
	Instance serve.Config
	// Policy picks the replica for each lookup (default round-robin).
	Policy Policy
	// MaxFailovers caps re-dispatches per lookup after the first pick fails
	// (0 defaults to Replicas-1 — try every replica once; negative means
	// no failover, straight to the oracle rung).
	MaxFailovers int
	// DisableOracle removes the fleet-level oracle rung: a lookup that
	// exhausts failover returns its typed fault (tests and diagnostics).
	DisableOracle bool
	// MakeInjector, when set, builds each instance's fault injector —
	// replicas must not share one injector, or their fault streams couple
	// through its state. Overrides Instance.Injector.
	MakeInjector func(i int) mesh.Injector
	// MakeTracer, when set, builds each instance's tracer. Without it only
	// replica 0 keeps Instance.Tracer: a tracer records one mesh's runs and
	// must not be shared across replicas.
	MakeTracer func(i int) *trace.Tracer
	// Obs installs the fleet-wide observability layer. Unlike tracers and
	// injectors the Observer IS shared: it is installed on every instance
	// (overriding Instance.Obs), so one request trace follows its lookup
	// across failover hops, and every replica's stage marks land in one set
	// of histograms. Nil disables observability fleet-wide.
	Obs *obs.Observer
	// Hedge configures speculative re-dispatch of slow lookups; Eject
	// configures latency-outlier replica ejection (both DESIGN.md §3.11,
	// both default off).
	Hedge HedgeConfig
	Eject EjectConfig
	// ProbeInterval paces the fleet's one prober (default 50ms): each tick
	// it runs a canary on every circuit-open replica and times a lookup on
	// every latency-ejected one. It is also the retry hint while recovery
	// waits on the prober rather than on a queue.
	ProbeInterval time.Duration
}

// Result is one answered lookup plus its provenance: which replica served
// it, or -1 for a fleet-oracle answer (Degraded is then also set).
type Result struct {
	serve.Result
	Replica int `json:"replica"`
}

// replica is one routing slot: the live instance (nil while down) and the
// crash/restart bookkeeping. Stats of crashed incarnations accumulate in
// lost so fleet aggregates survive a crash.
type replica struct {
	idx int

	mu        sync.RWMutex
	inst      *serve.Instance
	down      bool
	crashedAt time.Time
	crashes   int64
	lastTTH   time.Duration
	lost      serve.Stats

	// Gray-failure state (§3.11): the EWMA latency score over answered
	// dispatches (plus censored hedge/probe samples), the sample count
	// gating it, and the ejection verdict — all reset on restart, because a
	// fresh incarnation owes nothing to the old one's slowness. The
	// dispatch-latency histogram (the adaptive hedge delay reads its p99)
	// is cumulative across incarnations, like every other histogram here.
	ewmaNS     atomic.Int64
	latSamples atomic.Int64
	ejected    atomic.Bool
	lat        obs.Histogram
}

// Fleet is N serve instances behind a router. Safe for concurrent use.
type Fleet struct {
	cfg          Config
	policy       Policy
	maxFailovers int
	ss           *serve.StructureSet // fleet-level oracle structures, one per kind
	bt           *dict.BTree         // the membership structure's tree (Tree accessor)
	reps         []*replica

	mu     sync.RWMutex // guards closed against Lookup and restarts
	closed bool

	dispatched      atomic.Int64
	failovers       atomic.Int64 // re-dispatch attempts after a failed pick
	firstPickServed atomic.Int64 // lookups answered by the first pick
	failoverServed  atomic.Int64 // lookups answered by a non-first pick
	oracleServed    atomic.Int64 // lookups answered by the fleet oracle
	overloadedAll   atomic.Int64 // rejected: every routable replica was full
	unrouted        atomic.Int64 // lookups that found no routable replica
	crashes         atomic.Int64
	restarts        atomic.Int64
	budgetShed      atomic.Int64 // dispatches skipped: deadline budget below expected round time
	hedges          atomic.Int64 // speculative second dispatches launched
	hedgeWins       atomic.Int64 // hedges whose answer arrived first
	ejections       atomic.Int64 // latency-outlier ejections (auto + manual)
	readmissions    atomic.Int64 // ejections cleared (probes or manual)
	ejectProbes     atomic.Int64 // timed probe lookups sent to ejected replicas
	hedgeDelayNS    atomic.Int64 // cached derived hedge delay
	hedgeDelayAt    atomic.Int64 // unix ns the cache was filled

	probeStop   chan struct{} // closes to stop the prober
	probeDone   chan struct{} // closed when the prober has exited
	probeOnce   sync.Once
	lastTTH     atomic.Int64 // ns, most recent crash → healthy
	maxTTH      atomic.Int64 // ns, worst observed
	lat         obs.Histogram
	latFailover obs.Histogram // answered by a non-first pick
	latOracle   obs.Histogram // answered by the fleet oracle rung
	obs         *obs.Observer

	kindServed [serve.NumKinds]atomic.Int64 // answered lookups per query kind
	kindOracle [serve.NumKinds]atomic.Int64 // fleet-oracle answers per query kind
	kindLat    [serve.NumKinds]obs.Histogram
}

// New builds Replicas instances from the template and starts routing.
// Instance 0's dictionary doubles as the fleet oracle (all instances are
// built from the same key set, so any tree answers for all).
func New(cfg Config) (*Fleet, error) {
	if cfg.Replicas <= 0 {
		cfg.Replicas = 1
	}
	if cfg.Replicas > MaxReplicas {
		return nil, &ReplicaLimitError{Replicas: cfg.Replicas}
	}
	cfg.Hedge.setDefaults()
	cfg.Eject.setDefaults()
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 50 * time.Millisecond
	}
	f := &Fleet{cfg: cfg, policy: cfg.Policy, obs: cfg.Obs}
	if f.policy == nil {
		f.policy = RoundRobin()
	}
	f.maxFailovers = cfg.MaxFailovers
	if f.maxFailovers == 0 {
		f.maxFailovers = cfg.Replicas - 1
	} else if f.maxFailovers < 0 {
		f.maxFailovers = 0
	}
	f.reps = make([]*replica, cfg.Replicas)
	for i := range f.reps {
		inst, err := serve.New(f.instanceConfig(i))
		if err != nil {
			// Tear down what already started: constructor failure must not
			// leak serving goroutines.
			for j := 0; j < i; j++ {
				_ = f.reps[j].inst.Shutdown(context.Background())
			}
			return nil, fmt.Errorf("fleet: replica %d: %w", i, err)
		}
		f.reps[i] = &replica{idx: i, inst: inst}
	}
	// The oracle rung holds replica 0's host-side structures — one per
	// enabled kind. They are immutable data built from the shared key set
	// (every replica builds identical structures), so retaining them is safe
	// even across that replica's later crashes.
	f.ss = f.reps[0].inst.Structures()
	f.bt = f.ss.Membership()
	f.probeStop = make(chan struct{})
	f.probeDone = make(chan struct{})
	go f.probe()
	return f, nil
}

// instanceConfig specializes the template for replica i.
func (f *Fleet) instanceConfig(i int) serve.Config {
	cfg := f.cfg.Instance
	if f.cfg.MakeInjector != nil {
		cfg.Injector = f.cfg.MakeInjector(i)
	}
	if f.cfg.MakeTracer != nil {
		cfg.Tracer = f.cfg.MakeTracer(i)
	} else if i > 0 {
		cfg.Tracer = nil // a tracer records one mesh; never share it
	}
	// The Observer is deliberately shared (histograms and the trace ring are
	// concurrency-safe): instance-side stage marks land on the trace the
	// fleet began and carried in via context.
	cfg.Obs = f.obs
	return cfg
}

// Observer exposes the installed observability hub (nil when disabled).
func (f *Fleet) Observer() *obs.Observer { return f.obs }

// Tree exposes the fleet oracle's dictionary (tests, load generators).
func (f *Fleet) Tree() *dict.BTree { return f.bt }

// Structures exposes the fleet oracle's per-kind structure set.
func (f *Fleet) Structures() *serve.StructureSet { return f.ss }

// Kinds reports the query kinds every replica serves.
func (f *Fleet) Kinds() []serve.Kind { return f.ss.Kinds() }

// Replicas reports the configured replica count.
func (f *Fleet) Replicas() int { return len(f.reps) }

// Side reports the per-instance mesh side length.
func (f *Fleet) Side() int { return f.cfg.Instance.Side }

// MaxBatch reports the per-instance batch cap (from any live replica; the
// template value when all are down).
func (f *Fleet) MaxBatch() int {
	for _, r := range f.reps {
		r.mu.RLock()
		inst := r.inst
		r.mu.RUnlock()
		if inst != nil {
			return inst.MaxBatch()
		}
	}
	return f.cfg.Instance.MaxBatch
}

// instance returns replica i's live instance, or nil while it is down.
func (f *Fleet) instance(i int) *serve.Instance {
	r := f.reps[i]
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.down {
		return nil
	}
	return r.inst
}

// views snapshots every replica for the routing policy.
func (f *Fleet) views() []ReplicaView {
	out := make([]ReplicaView, len(f.reps))
	for i, r := range f.reps {
		r.mu.RLock()
		inst, down := r.inst, r.down
		r.mu.RUnlock()
		v := ReplicaView{Index: i}
		if !down && inst != nil {
			v.Up = true
			v.Health = inst.Health()
			v.QueueLen = inst.QueueLen()
			v.QueueCap = inst.QueueCap()
			v.LatencyEWMA = time.Duration(r.ewmaNS.Load())
			v.Ejected = r.ejected.Load()
		}
		out[i] = v
	}
	return out
}

// Lookup dispatches one membership query — LookupKind with the membership
// kind, kept for pre-kind callers.
func (f *Fleet) Lookup(ctx context.Context, needle int64) (Result, error) {
	return f.LookupKind(ctx, serve.KindMembership, serve.Args{needle})
}

// LookupKind dispatches one query of the given kind: the policy picks a
// replica, and a pick that fails — overload, crash, typed round fault, open
// circuit — is re-dispatched to the next-preferred replica before the fleet
// falls back to that kind's host oracle. Client-context expiry is returned
// as-is (the client is gone; rerouting would answer nobody). When every
// routable replica rejected with overload the fleet reports ErrOverloaded:
// that is backpressure, not failure, and the caller should back off.
func (f *Fleet) LookupKind(ctx context.Context, kind serve.Kind, args serve.Args) (Result, error) {
	start := time.Now()
	if kind >= serve.NumKinds || f.ss.Get(kind) == nil {
		// Replicas are built from one template, so a kind missing here is
		// missing everywhere: fail fast instead of burning failover attempts
		// on replicas guaranteed to reject it.
		return Result{}, serve.ErrKindNotServed
	}
	f.mu.RLock()
	if f.closed {
		f.mu.RUnlock()
		return Result{}, serve.ErrClosed
	}
	f.mu.RUnlock()
	f.dispatched.Add(1)

	// Fleet-level tracing: adopt the HTTP handler's trace from ctx, or begin
	// one here (and then finish it here — creator finalizes). The same trace
	// rides ctx into every instance dispatch, so one record accumulates the
	// admit/queue/linger/mesh marks of every replica it visited.
	var tr *obs.ReqTrace
	created := false
	if f.obs != nil {
		if tr = obs.FromContext(ctx); tr == nil {
			tr = f.obs.BeginClass(int(kind), obs.ParentFromContext(ctx), args[0], start)
			created = true
		}
		ctx = obs.NewContext(ctx, tr)
	}

	var tried uint64
	var lastErr error
	attempts, firstIdx := 0, -1
	overloadedOnly := true
	deadline, hasDeadline := ctx.Deadline()
	for attempts <= f.maxFailovers {
		idx := f.pick(tried)
		if idx < 0 {
			break
		}
		tried |= 1 << uint(idx)
		attempts++
		if firstIdx >= 0 {
			f.failovers.Add(1)
			if tr != nil {
				// The hop span: previous replica's failure surfacing here →
				// this re-dispatch. The next admit span starts at this mark.
				tr.Mark(obs.StageFailover)
			}
		} else {
			firstIdx = idx
		}
		inst := f.instance(idx)
		if inst == nil {
			lastErr = ErrNoReplica // crashed between the view and the fetch
			overloadedOnly = false
			continue
		}
		// Failover budget rung (§3.11): re-dispatching to a replica whose
		// expected round time exceeds the remaining deadline budget is
		// doomed work — skip the rung instead of burning it. The per-replica
		// prediction is what makes this gray-failure-aware: a latency-
		// injected replica honestly predicts long rounds, so tight-deadline
		// lookups route past it while generous ones may still use it.
		if hasDeadline {
			if need := inst.ExpectedRoundTime(kind); need > 0 && time.Until(deadline) < need {
				lastErr = serve.ErrBudgetExhausted
				overloadedOnly = false
				f.budgetShed.Add(1)
				continue
			}
		}
		res, servedIdx, hedgeWon, err := f.dispatchHedged(ctx, kind, args, idx, inst, &tried)
		if err == nil {
			failedOver := idx != firstIdx
			if failedOver {
				f.failoverServed.Add(1)
			} else {
				f.firstPickServed.Add(1)
			}
			e2e := time.Since(start)
			f.lat.Observe(e2e)
			f.kindServed[kind].Add(1)
			f.kindLat[kind].Observe(e2e)
			if failedOver {
				f.latFailover.Observe(e2e)
			}
			if tr != nil {
				tr.Replica = servedIdx
			}
			if created {
				oc := obs.OutcomeMesh
				if failedOver || hedgeWon {
					oc = obs.OutcomeFailover
				}
				f.obs.Finish(tr, oc, nil)
			}
			return Result{Result: res, Replica: servedIdx}, nil
		}
		if ctx.Err() != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			// The client is gone, not the replica. The instance's pipeline
			// may still hold the trace, so it can only be abandoned.
			if created {
				f.obs.Abandon(tr)
			}
			return Result{}, err
		}
		lastErr = err
		if !errors.Is(err, serve.ErrOverloaded) {
			overloadedOnly = false
		}
	}

	switch {
	case attempts > 0 && overloadedOnly:
		// Every routable replica is admission-full: backpressure. The
		// oracle must not absorb overload — it would turn saturation into
		// an unbounded degraded-answer pool and hide the knee.
		f.overloadedAll.Add(1)
		if created {
			f.obs.Finish(tr, obs.OutcomeRejected, serve.ErrOverloaded)
		}
		return Result{}, serve.ErrOverloaded
	case attempts == 0:
		f.unrouted.Add(1)
		if lastErr == nil {
			lastErr = ErrNoReplica
		}
	}
	if f.cfg.DisableOracle {
		if created {
			f.obs.Finish(tr, obs.OutcomeError, lastErr)
		}
		return Result{}, lastErr
	}
	// Oracle rung: no replica could answer (all crashed, draining, or
	// faulting). The kind's host-side structure descends its own search
	// graph — correct, Degraded-flagged, unaccounted in mesh steps.
	ans := serve.HostAnswer(f.ss.Get(kind), args)
	f.oracleServed.Add(1)
	f.kindServed[kind].Add(1)
	f.kindOracle[kind].Add(1)
	e2e := time.Since(start)
	f.lat.Observe(e2e)
	f.latOracle.Observe(e2e)
	f.kindLat[kind].Observe(e2e)
	if tr != nil {
		tr.Mark(obs.StageOracle)
		tr.Replica = -1
	}
	if created {
		f.obs.Finish(tr, obs.OutcomeOracle, nil)
	}
	return Result{
		Result: serve.Result{
			Kind:     kind,
			Needle:   args[0],
			Found:    ans.Found,
			LeafKey:  ans.Value,
			Value:    ans.Value,
			Aux:      ans.Aux,
			Steps:    ans.Steps,
			Degraded: true,
		},
		Replica: -1,
	}, nil
}

// CrashReplica simulates an instance crash: the replica is immediately
// unroutable, its in-flight and queued lookups fail with typed cancellation
// faults (which the dispatch loop treats as failover triggers), and its
// serving counters are folded into the fleet aggregate. No drain — a crash
// does not say goodbye.
func (f *Fleet) CrashReplica(i int) error {
	if i < 0 || i >= len(f.reps) {
		return fmt.Errorf("fleet: no replica %d", i)
	}
	r := f.reps[i]
	r.mu.Lock()
	if r.down || r.inst == nil {
		r.mu.Unlock()
		return fmt.Errorf("fleet: replica %d is already down", i)
	}
	inst := r.inst
	r.inst = nil
	r.down = true
	r.crashedAt = time.Now()
	r.crashes++
	r.mu.Unlock()
	f.crashes.Add(1)

	// Expired context: Shutdown cancels the mesh run instead of draining,
	// so every admitted lookup gets its fault now, not after a drain.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = inst.Shutdown(ctx)
	addStats(&r.mu, &r.lost, inst.Stats())
	return nil
}

// RestartReplica brings a crashed replica back: a fresh instance is built
// from the template (dictionary rebuild and all — that cost is the point of
// measuring it) and the crash-to-healthy duration is recorded.
func (f *Fleet) RestartReplica(i int) error {
	if i < 0 || i >= len(f.reps) {
		return fmt.Errorf("fleet: no replica %d", i)
	}
	f.mu.RLock()
	if f.closed {
		f.mu.RUnlock()
		return serve.ErrClosed
	}
	f.mu.RUnlock()
	r := f.reps[i]
	r.mu.RLock()
	down, crashedAt := r.down, r.crashedAt
	r.mu.RUnlock()
	if !down {
		return fmt.Errorf("fleet: replica %d is not down", i)
	}
	inst, err := serve.New(f.instanceConfig(i))
	if err != nil {
		return fmt.Errorf("fleet: restart replica %d: %w", i, err)
	}
	tth := time.Since(crashedAt)
	r.mu.Lock()
	if !r.down { // lost a restart race; discard ours
		r.mu.Unlock()
		_ = inst.Shutdown(context.Background())
		return fmt.Errorf("fleet: replica %d restarted concurrently", i)
	}
	r.inst = inst
	r.down = false
	r.lastTTH = tth
	r.mu.Unlock()
	// A fresh incarnation starts with a clean latency record: the old
	// instance's slowness (often the very reason it was crashed) must not
	// pre-eject its replacement.
	r.ewmaNS.Store(0)
	r.latSamples.Store(0)
	if r.ejected.CompareAndSwap(true, false) {
		f.readmissions.Add(1)
	}
	f.restarts.Add(1)
	f.lastTTH.Store(tth.Nanoseconds())
	for {
		m := f.maxTTH.Load()
		if tth.Nanoseconds() <= m || f.maxTTH.CompareAndSwap(m, tth.Nanoseconds()) {
			break
		}
	}
	return nil
}

// Health is the fleet's admission-facing state: Healthy while at least one
// replica is healthy *and not latency-ejected*, LameDuck once Shutdown
// begins, Degraded in between — every lookup is then answered by
// failover-to-degraded-replicas, last-resort ejected replicas, or the
// oracle, and /healthz tells balancers to prefer elsewhere. An all-ejected
// fleet is therefore Degraded even though every breaker is closed: that is
// the gray-failure case /healthz exists to surface.
func (f *Fleet) Health() serve.Health {
	f.mu.RLock()
	closed := f.closed
	f.mu.RUnlock()
	if closed {
		return serve.LameDuck
	}
	for _, v := range f.views() {
		if v.Up && v.Health == serve.Healthy && !v.Ejected {
			return serve.Healthy
		}
	}
	return serve.Degraded
}

// RestartBoundHint is the retry hint when zero replicas are routable: with
// every replica down or lame-duck, the soonest the fleet could accept work
// is bounded by a replica restart (dictionary rebuild and all), which is not
// knowable from admission state — so the hint is a fixed, deliberately
// pessimistic constant rather than a zero/garbage duration. Pinned by
// TestRetryAfterHintNoHealthyReplicas.
const RestartBoundHint = time.Second

// RetryAfterHint is the fleet's backpressure signal: the minimum retry hint
// across healthy routable replicas — the soonest any replica could accept
// work — not whichever instance happened to reject. Degraded replicas are
// consulted only when no healthy one exists, and their hint is at least one
// probe interval: a circuit closes only on the prober's next canary. When
// every live replica is latency-ejected the hint is one probe interval too,
// for the same reason. With no routable replica at all the hint is
// RestartBoundHint.
func (f *Fleet) RetryAfterHint() time.Duration {
	best, bestDegraded := time.Duration(-1), time.Duration(-1)
	anyEjected := false
	for i, v := range f.views() {
		if !v.Up || v.Health == serve.LameDuck {
			continue
		}
		if v.Ejected {
			anyEjected = true
			continue
		}
		inst := f.instance(i)
		if inst == nil {
			continue
		}
		h := inst.RetryAfterHint()
		if v.Health == serve.Healthy {
			if best < 0 || h < best {
				best = h
			}
		} else if bestDegraded < 0 || h < bestDegraded {
			bestDegraded = h
		}
	}
	switch {
	case best >= 0:
		return best
	case bestDegraded >= 0:
		return max(bestDegraded, f.cfg.ProbeInterval)
	case anyEjected:
		return f.cfg.ProbeInterval
	default:
		return RestartBoundHint
	}
}

// Shutdown closes fleet admission and drains every live replica in
// parallel through the normal serve drain path. Crashed replicas stay
// down. Returns the first drain error.
func (f *Fleet) Shutdown(ctx context.Context) error {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()

	f.probeOnce.Do(func() { close(f.probeStop) })
	<-f.probeDone

	var wg sync.WaitGroup
	errs := make([]error, len(f.reps))
	for i, r := range f.reps {
		r.mu.RLock()
		inst := r.inst
		r.mu.RUnlock()
		if inst == nil {
			continue
		}
		wg.Add(1)
		go func(i int, inst *serve.Instance) {
			defer wg.Done()
			errs[i] = inst.Shutdown(ctx)
		}(i, inst)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// addStats folds src's counters into dst under the replica lock.
func addStats(mu *sync.RWMutex, dst *serve.Stats, src serve.Stats) {
	mu.Lock()
	defer mu.Unlock()
	sumStats(dst, src)
}

// sumStats adds src's counters into dst, per kind too (latency summaries
// do not sum; fleet-level latency comes from the fleet's own histograms;
// Degraded is the fleet's own oracle count, set by Stats).
// Replicas share one template, so their per-kind rows align by index. The
// per-kind rows are rebuilt rather than added in place: dst may be a copy
// of a replica's lost stats, whose rows must not change under it.
func sumStats(dst *serve.Stats, src serve.Stats) {
	kinds := make([]serve.KindStats, max(len(dst.Kinds), len(src.Kinds)))
	copy(kinds, dst.Kinds)
	for i, ks := range src.Kinds {
		kinds[i].Kind = ks.Kind
		kinds[i].Served += ks.Served
		kinds[i].Rounds += ks.Rounds
		kinds[i].SimSteps += ks.SimSteps
	}
	dst.Kinds = kinds
	dst.Accepted += src.Accepted
	dst.Rejected += src.Rejected
	dst.Served += src.Served
	dst.Failed += src.Failed
	dst.Rounds += src.Rounds
	dst.RoundQueries += src.RoundQueries
	dst.SimSteps += src.SimSteps
	if src.PeakBatch > dst.PeakBatch {
		dst.PeakBatch = src.PeakBatch
	}
	dst.LastBatch = src.LastBatch
	dst.StepBudget = src.StepBudget
	dst.Retries += src.Retries
	dst.Recovered += src.Recovered
	dst.BudgetShed += src.BudgetShed
	dst.CircuitOpens += src.CircuitOpens
	dst.CircuitCloses += src.CircuitCloses
	dst.CanaryRounds += src.CanaryRounds
	dst.CanaryFails += src.CanaryFails
	dst.FaultsAudit += src.FaultsAudit
	dst.FaultsBudget += src.FaultsBudget
	dst.FaultsCanceled += src.FaultsCanceled
	dst.FaultsPanic += src.FaultsPanic
	dst.FaultsOther += src.FaultsOther
}

// ReplicaStats is one replica's row in the fleet snapshot.
type ReplicaStats struct {
	Index         int           `json:"index"`
	State         string        `json:"state"` // up | down
	Health        string        `json:"health,omitempty"`
	QueueLen      int           `json:"queue_len"`
	Crashes       int64         `json:"crashes"`
	TimeToHealthy time.Duration `json:"time_to_healthy_ns,omitempty"` // last restart
	// Ejected and LatencyEWMA are the gray-failure columns (§3.11): the
	// fleet's latency-outlier verdict and the score behind it.
	Ejected     bool          `json:"ejected,omitempty"`
	LatencyEWMA time.Duration `json:"latency_ewma_ns,omitempty"`
	Serve       serve.Stats   `json:"serve"`
}

// Stats is a point-in-time snapshot of the fleet. Agg sums every
// incarnation of every replica (crashed instances included); instances
// have no oracle rung, so Agg.Degraded and Agg.Kinds[].Degraded are the
// fleet-oracle answers (OracleServed and ByKind[].OracleServed). Agg.Kinds
// sums the per-kind counters but carries no per-kind latency; the fleet's
// per-kind latency is ByKind.
type Stats struct {
	Replicas         int    `json:"replicas"`
	HealthyReplicas  int    `json:"healthy_replicas"`
	DegradedReplicas int    `json:"degraded_replicas"`
	DownReplicas     int    `json:"down_replicas"`
	EjectedReplicas  int    `json:"ejected_replicas"`
	Policy           string `json:"policy"`
	Health           string `json:"health"`

	// Answered lookups split by serving rung: FirstPickServed +
	// FailoverServed + OracleServed is every answered lookup. Dispatched
	// also counts lookups that returned an error.
	Dispatched      int64 `json:"dispatched"`
	Failovers       int64 `json:"failovers"`
	FirstPickServed int64 `json:"first_pick_served"`
	FailoverServed  int64 `json:"failover_served"`
	OracleServed    int64 `json:"oracle_served"`
	OverloadedAll   int64 `json:"overloaded_all"`
	Unrouted        int64 `json:"unrouted"`
	Crashes         int64 `json:"crashes"`
	Restarts        int64 `json:"restarts"`

	// Gray-failure counters (§3.11). BudgetShed here counts *fleet-side*
	// pre-dispatch sheds (replica skipped because its expected round time
	// exceeded the remaining deadline budget); instance-side sheds are in
	// Agg.BudgetShed. Hedges/HedgeWins: speculative second dispatches and
	// how many beat the primary. Ejections/Readmissions/EjectProbes: the
	// latency-outlier ejection lifecycle.
	BudgetShed   int64 `json:"budget_shed"`
	Hedges       int64 `json:"hedges"`
	HedgeWins    int64 `json:"hedge_wins"`
	Ejections    int64 `json:"ejections"`
	Readmissions int64 `json:"readmissions"`
	EjectProbes  int64 `json:"eject_probes"`

	LastTimeToHealthy time.Duration `json:"last_time_to_healthy_ns"`
	MaxTimeToHealthy  time.Duration `json:"max_time_to_healthy_ns"`

	Latency obs.LatencySummary `json:"latency"` // fleet dispatch → answer
	// LatencyFailover / LatencyOracle split the dispatch latency by how the
	// answer was produced (non-first-pick replica vs fleet oracle rung), so
	// the fleet p99 can be attributed; Latency stays as the combined view.
	LatencyFailover obs.LatencySummary `json:"latency_failover"`
	LatencyOracle   obs.LatencySummary `json:"latency_oracle"`

	Agg        serve.Stats    `json:"agg"`
	PerReplica []ReplicaStats `json:"per_replica"`
	ByKind     []KindRouting  `json:"by_kind,omitempty"`
}

// KindRouting is one query kind's routing row in the fleet snapshot:
// answered lookups of that kind (any rung), how many fell through to the
// fleet oracle, and the kind's dispatch-to-answer latency.
type KindRouting struct {
	Kind         string             `json:"kind"`
	Served       int64              `json:"served"`
	OracleServed int64              `json:"oracle_served"`
	Latency      obs.LatencySummary `json:"latency"`
}

// Stats snapshots the fleet: routing and failover counters, per-replica
// state, and the summed per-instance serving counters.
func (f *Fleet) Stats() Stats {
	st := Stats{
		Replicas:          len(f.reps),
		Policy:            f.policy.Name(),
		Health:            f.Health().String(),
		Dispatched:        f.dispatched.Load(),
		Failovers:         f.failovers.Load(),
		FirstPickServed:   f.firstPickServed.Load(),
		FailoverServed:    f.failoverServed.Load(),
		OracleServed:      f.oracleServed.Load(),
		OverloadedAll:     f.overloadedAll.Load(),
		Unrouted:          f.unrouted.Load(),
		Crashes:           f.crashes.Load(),
		Restarts:          f.restarts.Load(),
		BudgetShed:        f.budgetShed.Load(),
		Hedges:            f.hedges.Load(),
		HedgeWins:         f.hedgeWins.Load(),
		Ejections:         f.ejections.Load(),
		Readmissions:      f.readmissions.Load(),
		EjectProbes:       f.ejectProbes.Load(),
		LastTimeToHealthy: time.Duration(f.lastTTH.Load()),
		MaxTimeToHealthy:  time.Duration(f.maxTTH.Load()),
		Latency:           f.lat.Snapshot().Summary(),
		LatencyFailover:   f.latFailover.Snapshot().Summary(),
		LatencyOracle:     f.latOracle.Snapshot().Summary(),
	}
	for _, r := range f.reps {
		r.mu.RLock()
		inst, down := r.inst, r.down
		row := ReplicaStats{Index: r.idx, Crashes: r.crashes, TimeToHealthy: r.lastTTH, Serve: r.lost}
		r.mu.RUnlock()
		if down || inst == nil {
			row.State = "down"
			st.DownReplicas++
		} else {
			row.State = "up"
			h := inst.Health()
			row.QueueLen = inst.QueueLen()
			row.LatencyEWMA = time.Duration(r.ewmaNS.Load())
			row.Ejected = r.ejected.Load()
			if row.Ejected {
				// The fleet's verdict overrides the instance's self-report:
				// a gray-failed replica says Healthy about itself.
				row.Health = serve.Ejected.String()
				st.EjectedReplicas++
			} else {
				row.Health = h.String()
			}
			live := inst.Stats()
			sumStats(&row.Serve, live)
			switch {
			case row.Ejected:
			case h == serve.Healthy:
				st.HealthyReplicas++
			case h == serve.Degraded:
				st.DegradedReplicas++
			}
		}
		sumStats(&st.Agg, row.Serve)
		st.PerReplica = append(st.PerReplica, row)
	}
	st.Agg.Health = st.Health
	st.Agg.Latency = st.Latency
	st.Agg.Degraded = st.OracleServed
	for i, k := range f.ss.Kinds() {
		oracle := f.kindOracle[k].Load()
		st.ByKind = append(st.ByKind, KindRouting{
			Kind:         k.String(),
			Served:       f.kindServed[k].Load(),
			OracleServed: oracle,
			Latency:      f.kindLat[k].Snapshot().Summary(),
		})
		// sumStats rebuilt Agg.Kinds, so no replica's rows change here. A
		// replica caught mid-crash may not have filed its rows yet.
		if i < len(st.Agg.Kinds) {
			st.Agg.Kinds[i].Degraded = oracle
		}
	}
	return st
}
