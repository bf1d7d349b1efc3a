// Package serve turns the batch multisearch machinery into a query-serving
// subsystem: a long-lived mesh holding built search structures — one per
// enabled query Kind: the dict (a,b)-tree, the Kirkpatrick point-location
// DAG, the interval rank trees, the xy-shadow wedge tree and the DK
// hierarchy — per-kind admission queues accepting lookups from many
// concurrent clients, and a round loop that collects admitted queries into
// per-kind batches and answers each batch with one multisearch round
// (DESIGN.md §3.5, §3.10).
//
// The serving loop is per-kind collectors feeding one executor through a
// one-slot channel: each collector assembles its kind's next batch
// (blocking for the first query, then filling until the batch is full or
// the linger deadline passes) while the executor simulates the current
// round — host-side batch assembly overlaps simulated mesh time, and rounds
// for different kinds interleave on the shared mesh (mixed-workload
// rounds), each under its own step budget. Admission is bounded per kind:
// when a kind's queue is full, Lookup fails fast with ErrOverloaded rather
// than queueing unboundedly. Shutdown closes admission, drains every
// in-flight batch through the normal round path, and only cancels the mesh
// run (via the run-control context seam) if the caller's drain deadline
// expires.
//
// A faulted round climbs a short recovery ladder (DESIGN.md §3.6): it is
// classified (core.Classify), re-executed with auditing forced on under
// jittered backoff, and — if the mesh keeps failing — its batch receives
// the typed fault. A sliding-window circuit breaker drives a health state
// machine (healthy → degraded → lame-duck); an open circuit fails batches
// fast with ErrCircuitOpen until an audited canary round (Probe) closes it.
// The rungs above — failover to another replica, the host oracle, and the
// prober that calls Probe — belong to internal/fleet (§3.8).
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/trace"
)

// ErrOverloaded is returned by Lookup when the admission queue is full: the
// client should back off and retry. Typed so load generators and HTTP
// handlers can distinguish overload (retryable, 429) from closure.
var ErrOverloaded = errors.New("serve: admission queue full")

// ErrClosed is returned by Lookup once Shutdown has begun.
var ErrClosed = errors.New("serve: server closed")

// ErrCircuitOpen is returned for lookups whose batch reaches the executor
// while the circuit is open: the mesh path is distrusted, so the batch
// neither runs nor counts a round. The fleet layer treats it as a failover
// trigger — re-dispatch to a healthy replica, then the fleet-level oracle.
var ErrCircuitOpen = errors.New("serve: circuit open, mesh path unavailable")

// ErrKindNotServed is returned by LookupKind for a kind this instance was
// not configured to serve (HTTP surfaces map it to 400).
var ErrKindNotServed = errors.New("serve: kind not served by this instance")

// ErrBudgetExhausted is returned when a lookup's remaining deadline budget
// is smaller than the expected time a round needs to answer it: the work is
// doomed — by the time a batch lingered and a round ran, the client would be
// gone — so it is shed before burning mesh time (DESIGN.md §3.11). Typed so
// the fleet treats it as a failover trigger (a faster replica may still make
// the deadline) and the HTTP surface maps it to 504.
var ErrBudgetExhausted = errors.New("serve: deadline budget exhausted before a round could answer")

// Config configures an Instance. The zero value of every field has a usable
// default except Side, which must be a positive power of two.
type Config struct {
	// Side is the mesh side length √n; required, power of two.
	Side int
	// Keys is the dictionary key set. Nil defaults to n/4 odd keys
	// 1, 3, 5, …, so even needles miss and odd needles below the range hit.
	Keys []int64
	// A, B select the (a,b)-tree arity; 0,0 defaults to a 2-3 tree.
	A, B int
	// Kinds lists the extra query kinds to serve besides membership, which
	// is always enabled. Nil serves membership only — the pre-kind behaviour.
	// Each kind's structure is built deterministically from (Side, Keys) and
	// loaded onto the shared mesh with its own core.Instance registers.
	Kinds []Kind
	// Model selects the mesh cost model (default CostCounted).
	Model mesh.CostModel
	// MaxBatch caps the queries per multisearch round. 0 defaults to n,
	// one query per processor; larger values are clamped to n. Kinds that
	// expand one request into several mesh queries divide this cap.
	MaxBatch int
	// QueueDepth bounds each kind's admission queue. 0 defaults to
	// 4×MaxBatch.
	QueueDepth int
	// Linger is how long a collector waits to fill a batch after its
	// first query arrives. ≤ 0 means no waiting: a round starts with
	// whatever is already queued.
	Linger time.Duration
	// Budget is the per-round step budget (the clock resets every round);
	// a round that exceeds it fails with a *mesh.BudgetExceededError
	// delivered to every query of the batch. 0 = unlimited.
	Budget int64
	// KindBudgets overrides Budget per kind (per-kind step budgets for
	// mixed-workload rounds); kinds absent from the map use Budget.
	KindBudgets map[Kind]int64
	// Tracer, when set, records one traced run per round — including every
	// retry re-execution and canary probe, each tagged in its run label
	// (retention is bounded by RetainRuns) — and feeds the /metrics live
	// snapshot.
	Tracer *trace.Tracer
	// RetainRuns bounds the tracer's retained runs (default 64).
	RetainRuns int
	// Parallelism bounds the simulator's goroutines (default GOMAXPROCS).
	Parallelism int

	// Audit enables audit mode on every round, not only on retries. Under
	// fault injection this is what guarantees zero wrong answers: a fault
	// trips the audit and the round is retried or fails typed instead of
	// silently corrupting results.
	Audit bool
	// Injector installs a fault injector on the serving mesh (chaos
	// testing; see internal/faults). Nil disables injection.
	Injector mesh.Injector
	// MaxRetries is how many audited re-executions a failed round gets
	// before its batch receives the typed fault. 0 defaults to 3; negative
	// means no retries.
	MaxRetries int
	// RetryBackoff is the base of the jittered exponential backoff slept
	// between attempts (0 defaults to Backoff's 200µs base).
	RetryBackoff time.Duration
	// BackoffSeed seeds the retry ladder's backoff jitter so chaos runs are
	// reproducible end-to-end: with the fault injector seeded but the backoff
	// drawing from the process-global rand, two identical chaos runs sleep
	// differently between retries. 0 keeps the global source (the default).
	BackoffSeed int64
	// BreakerWindow is the number of recent mesh rounds in the circuit
	// breaker's sliding window (0 defaults to 16).
	BreakerWindow int
	// BreakerThreshold is the windowed first-attempt failure rate at or
	// above which the circuit opens (0 defaults to 0.5; clamped to (0,1]).
	BreakerThreshold float64

	// Obs installs the wall-clock observability layer (DESIGN.md §3.9):
	// every Lookup gets a per-stage traced ReqTrace, stage histograms feed
	// the Prometheus exposition, and completed traces are retained for
	// /debug/traces. Nil (the default) disables all of it at the cost of one
	// pointer check per stage boundary — the mesh.Tracer/Injector pattern.
	// An instance inside a fleet shares the fleet's Observer, so its stage
	// marks land on the trace the fleet began. An Observer built with
	// obs.Config.Classes = KindNames() splits stage histograms by kind.
	Obs *obs.Observer
}

// Result is the answer to one lookup.
type Result struct {
	Kind    Kind  `json:"kind"`
	Needle  int64 `json:"needle"`
	Found   bool  `json:"found"`
	LeafKey int64 `json:"leaf_key"` // key of the reached leaf (= Value)
	// Value is the kind's primary answer: leaf key (membership), triangle
	// index (pointloc), intersection count (interval), wedge index
	// (linepoly), extreme vertex index (tangent).
	Value int64 `json:"value"`
	// Aux is the kind's secondary answer (the tangent plane offset d·v).
	Aux   int64 `json:"aux,omitempty"`
	Steps int32 `json:"steps"` // search-path length of this query
	Round int64 `json:"round"` // serving round that answered it
	// Degraded marks an answer produced by the fleet's host-side oracle
	// rung instead of a mesh round: correct, but unaccounted in simulated
	// mesh steps. An instance never sets it.
	Degraded bool `json:"degraded,omitempty"`
}

// KindStats is the per-kind slice of the serving counters. Degraded, like
// Stats.Degraded, is filled in only by the fleet aggregate.
type KindStats struct {
	Kind     string             `json:"kind"`
	Served   int64              `json:"served"`
	Degraded int64              `json:"degraded"`
	Rounds   int64              `json:"rounds"`
	SimSteps int64              `json:"sim_steps"`
	Latency  obs.LatencySummary `json:"latency"`
}

// Stats is a point-in-time snapshot of the serving counters. Served counts
// the lookups a mesh round answered. Degraded counts host-oracle answers:
// an instance has no oracle rung, so it reads 0 here, and the fleet fills
// it in its aggregate (fleet.Stats.Agg) with its own oracle-rung count.
type Stats struct {
	Accepted     int64 `json:"accepted"`      // lookups admitted to the queue
	Rejected     int64 `json:"rejected"`      // lookups refused with ErrOverloaded
	Served       int64 `json:"served"`        // lookups answered by a mesh round
	Failed       int64 `json:"failed"`        // lookups answered with an error
	Rounds       int64 `json:"rounds"`        // batches that ran at least one mesh attempt
	RoundQueries int64 `json:"round_queries"` // lookups in those batches
	SimSteps     int64 `json:"sim_steps"`     // simulated mesh steps across all rounds
	LastBatch    int64 `json:"last_batch"`    // size of the most recent batch
	PeakBatch    int64 `json:"peak_batch"`    // largest batch so far
	StepBudget   int64 `json:"step_budget"`   // configured per-round budget (0 = unlimited)

	// BudgetShed counts lookups refused (at admission) or failed (in the
	// retry ladder) with ErrBudgetExhausted: doomed work shed before a mesh
	// round was burned on it (DESIGN.md §3.11).
	BudgetShed int64 `json:"budget_shed"`

	// Recovery accounting (DESIGN.md §3.6).
	Retries        int64  `json:"retries"`        // audited re-executions of failed rounds
	Recovered      int64  `json:"recovered"`      // rounds that failed, then succeeded on a retry
	Degraded       int64  `json:"degraded"`       // lookups answered by the host oracle (fleet aggregate only)
	CircuitOpens   int64  `json:"circuit_opens"`  // healthy → degraded transitions
	CircuitCloses  int64  `json:"circuit_closes"` // degraded → healthy transitions
	CanaryRounds   int64  `json:"canary_rounds"`  // audited canary probes executed
	CanaryFails    int64  `json:"canary_fails"`   // canary probes that failed
	FaultsAudit    int64  `json:"faults_audit"`   // round attempts failed by fault class
	FaultsBudget   int64  `json:"faults_budget"`
	FaultsCanceled int64  `json:"faults_canceled"`
	FaultsPanic    int64  `json:"faults_panic"`
	FaultsOther    int64  `json:"faults_other"`
	Health         string `json:"health"` // healthy | degraded | lame-duck

	// Latency summarizes the answered-lookup latency histogram (admission to
	// response) so /metrics exposes serving percentiles without any
	// per-query allocation on the hot path.
	Latency obs.LatencySummary `json:"latency"`

	// Kinds splits the served/round counters and latency by query kind, in
	// enabled-kind order (DESIGN.md §3.10).
	Kinds []KindStats `json:"kinds,omitempty"`
}

type request struct {
	args Args
	resp chan response
	// deadline is the client context's deadline (zero when it has none). It
	// rides the request through the pipeline so the collector can cut linger
	// short and the retry ladder can shed a batch no deadline can survive.
	deadline time.Time
	// tr is the request's wall-clock trace (nil when observability is off).
	// Ownership moves with the request along the pipeline's channel handoffs
	// — Lookup → queue → collector → batches → executor → resp → Lookup —
	// so stage marks need no locks.
	tr *obs.ReqTrace
}

type response struct {
	res Result
	err error
}

// kindRuntime is one enabled kind's serving state: its structure, its
// mesh-resident registers, its admission queue and collector, its step
// budget and its counters. The executor multiplexes rounds across the
// runtimes on the one shared mesh.
type kindRuntime struct {
	kind     Kind
	st       Structure
	in       *core.Instance
	queue    chan request
	budget   int64
	maxBatch int // requests per round: Config.MaxBatch / PerRequest

	rounds, served, simSteps atomic.Int64
	lat                      obs.Histogram
	// stepsEWMA tracks recent mesh steps per round of this kind (EWMA ×256
	// fixed-point), the steps half of the expected-round-time product.
	stepsEWMA atomic.Int64
}

// kindBatch is one collected batch annotated with its kind runtime.
type kindBatch struct {
	kr   *kindRuntime
	reqs []request
}

// Instance owns one mesh with the built structures of its enabled kinds and
// serves batched lookups against them: the per-kind collectors, the shared
// executor, the recovery ladder, the breaker state, and the serving
// counters — the unit internal/fleet replicates and routes between. Safe
// for concurrent use.
type Instance struct {
	cfg      Config
	m        *mesh.Mesh
	ss       *StructureSet
	kinds    []Kind
	kr       [NumKinds]*kindRuntime
	maxBatch int

	batches chan kindBatch
	runCtx  context.Context
	cancel  context.CancelFunc
	done    chan struct{}

	mu     sync.RWMutex // guards closed against Lookup's queue send
	closed bool

	accepted, rejected, served, failed atomic.Int64
	budgetShed                         atomic.Int64
	rounds, roundQueries, simSteps     atomic.Int64
	lastBatch, peakBatch               atomic.Int64
	// nsPerStep is the observed steps-to-wall-clock ratio (float64 bits),
	// an EWMA over mesh rounds. With the kind's step budget (Theorem 2's
	// O(√n) bound) it predicts round latency: expected ≈ steps × ns/step.
	nsPerStep atomic.Uint64
	lat       obs.Histogram // answered-lookup latency, admission → response
	obs       *obs.Observer

	// Recovery state (DESIGN.md §3.6). maxRetries/backoff are the resolved
	// Config knobs; brk is owned by the executor goroutine; circuitOpen
	// mirrors brk's verdict for readers (Health, the fleet) and lameduck is
	// set once by Shutdown. probes carries Probe calls to the executor.
	maxRetries  int
	backoff     Backoff
	brk         *breaker
	probes      chan chan error
	circuitOpen atomic.Bool
	lameduck    atomic.Bool

	retries, recovered           atomic.Int64
	circuitOpens, circuitCloses  atomic.Int64
	canaryRounds, canaryFailures atomic.Int64
	faults                       [core.FaultOther + 1]atomic.Int64
}

// New builds the enabled kinds' structures, loads them onto a fresh mesh,
// and starts the serving loop. The returned instance answers Lookups until
// Shutdown.
func New(cfg Config) (*Instance, error) {
	if cfg.Side <= 0 || cfg.Side&(cfg.Side-1) != 0 {
		return nil, fmt.Errorf("serve: side must be a positive power of two, got %d", cfg.Side)
	}
	n := cfg.Side * cfg.Side
	keys := cfg.Keys
	if keys == nil {
		keys = make([]int64, n/4)
		for i := range keys {
			keys[i] = int64(2*i + 1)
		}
	}
	a, b := cfg.A, cfg.B
	if a == 0 && b == 0 {
		a, b = 2, 3
	}
	ss, err := BuildStructures(cfg.Side, keys, a, b, cfg.Kinds)
	if err != nil {
		return nil, err
	}
	maxBatch := cfg.MaxBatch
	if maxBatch <= 0 || maxBatch > n {
		maxBatch = n
	}
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = 4 * maxBatch
	}

	ctx, cancel := context.WithCancel(context.Background())
	opts := []mesh.Option{
		mesh.WithCostModel(cfg.Model),
		mesh.WithBudget(cfg.Budget),
		mesh.WithContext(ctx),
	}
	if cfg.Audit {
		opts = append(opts, mesh.WithAudit())
	}
	if cfg.Tracer != nil {
		retain := cfg.RetainRuns
		if retain <= 0 {
			retain = 64
		}
		cfg.Tracer.SetRetain(retain)
		opts = append(opts, mesh.WithTracer(cfg.Tracer))
	}
	if cfg.Parallelism > 0 {
		opts = append(opts, mesh.WithParallelism(cfg.Parallelism))
	}
	m := mesh.New(cfg.Side, opts...)

	maxRetries := cfg.MaxRetries
	if maxRetries == 0 {
		maxRetries = 3
	} else if maxRetries < 0 {
		maxRetries = 0
	}
	window := cfg.BreakerWindow
	if window <= 0 {
		window = 16
	}
	threshold := cfg.BreakerThreshold
	if threshold <= 0 || threshold > 1 {
		threshold = 0.5
	}
	backoff := Backoff{Base: cfg.RetryBackoff}
	if cfg.BackoffSeed != 0 {
		backoff.Jitter = SeededJitter(cfg.BackoffSeed)
	}

	s := &Instance{
		cfg:        cfg,
		m:          m,
		ss:         ss,
		kinds:      ss.Kinds(),
		maxBatch:   maxBatch,
		batches:    make(chan kindBatch, 1),
		runCtx:     ctx,
		cancel:     cancel,
		done:       make(chan struct{}),
		maxRetries: maxRetries,
		backoff:    backoff,
		brk:        newBreaker(window, threshold),
		probes:     make(chan chan error),
		obs:        cfg.Obs,
	}
	for _, k := range s.kinds {
		st := ss.Get(k)
		per := max(1, st.PerRequest())
		kr := &kindRuntime{
			kind:     k,
			st:       st,
			in:       core.NewInstance(m, st.Graph(), nil, st.Successor()),
			queue:    make(chan request, depth),
			budget:   cfg.Budget,
			maxBatch: max(1, maxBatch/per),
		}
		if kb, ok := cfg.KindBudgets[k]; ok {
			kr.budget = kb
		}
		s.kr[k] = kr
	}
	// The injector goes in only after every structure is resident: a fault
	// injected during host-side construction would surface outside the
	// core.Run containment boundary and crash the process instead of
	// entering the recovery ladder. The serving goroutines have not started,
	// so the mesh is quiescent as SetInjector requires.
	if cfg.Injector != nil {
		m.SetInjector(cfg.Injector)
	}
	// The instance's only goroutines: one collector per kind and the
	// executor. The last collector to drain closes the executor's input.
	var collecting atomic.Int32
	collecting.Store(int32(len(s.kinds)))
	for _, k := range s.kinds {
		kr := s.kr[k]
		go func() {
			s.collect(kr)
			if collecting.Add(-1) == 0 {
				close(s.batches)
			}
		}()
	}
	go s.execute()
	return s, nil
}

// Health reports the server's current admission-facing state.
func (s *Instance) Health() Health {
	switch {
	case s.lameduck.Load():
		return LameDuck
	case s.circuitOpen.Load():
		return Degraded
	default:
		return Healthy
	}
}

// Structures exposes the kind registry (fleet oracle rung, load-generator
// oracle checks, tests).
func (s *Instance) Structures() *StructureSet { return s.ss }

// Kinds lists the kinds this instance serves, in registry order.
func (s *Instance) Kinds() []Kind { return append([]Kind(nil), s.kinds...) }

// MaxBatch reports the effective per-round batch cap (membership; kinds
// with PerRequest > 1 divide it).
func (s *Instance) MaxBatch() int { return s.maxBatch }

// QueueLen is the current admission backlog summed across kinds — the load
// signal the fleet's least-loaded routing policy reads. A point-in-time
// sample.
func (s *Instance) QueueLen() int {
	total := 0
	for _, k := range s.kinds {
		total += len(s.kr[k].queue)
	}
	return total
}

// QueueCap is the admission capacity summed across kinds.
func (s *Instance) QueueCap() int {
	total := 0
	for _, k := range s.kinds {
		total += cap(s.kr[k].queue)
	}
	return total
}

// RetryAfterHint estimates how long a rejected (or routed-around) client
// should wait before retrying this instance: the time for the current
// admission backlog to drain, at one fill window per queued round, with a
// floor of one window. The fleet's backpressure signal takes the minimum of
// this hint across healthy replicas, so a 429 reflects the soonest any
// replica could accept work.
func (s *Instance) RetryAfterHint() time.Duration {
	per := s.cfg.Linger
	if per <= 0 {
		per = time.Millisecond
	}
	return time.Duration(s.QueueLen()/s.maxBatch+1) * per
}

// observeStepRatio feeds one completed mesh attempt into the ns/step EWMA
// and the kind's steps-per-round EWMA (executor goroutine only; readers load
// the atomics). α = 1/4: responsive to a replica turning slow within a few
// rounds, stable against one outlier round.
func (s *Instance) observeStepRatio(kr *kindRuntime, steps int64, wall time.Duration) {
	if steps <= 0 || wall <= 0 {
		return
	}
	ratio := float64(wall) / float64(steps)
	if old := math.Float64frombits(s.nsPerStep.Load()); old > 0 {
		ratio = old + (ratio-old)/4
	}
	s.nsPerStep.Store(math.Float64bits(ratio))
	scaled := steps * 256
	if old := kr.stepsEWMA.Load(); old > 0 {
		scaled = old + (scaled-old)/4
	}
	kr.stepsEWMA.Store(scaled)
}

// expectedRoundDur predicts one mesh round's wall-clock cost for the kind:
// expected steps × observed ns/step. The steps estimate is the kind's recent
// per-round EWMA, capped by its configured step budget (the Theorem 2 O(√n)
// bound — a round provably never runs longer, so the prediction never
// exceeds what the budget enforces); before any round has been observed the
// prediction is 0, meaning "unknown: never shed".
func (s *Instance) expectedRoundDur(kr *kindRuntime) time.Duration {
	ratio := math.Float64frombits(s.nsPerStep.Load())
	if ratio <= 0 {
		return 0
	}
	steps := kr.stepsEWMA.Load() / 256
	if kr.budget > 0 && (steps <= 0 || steps > kr.budget) {
		steps = kr.budget
	}
	if steps <= 0 {
		return 0
	}
	return time.Duration(float64(steps) * ratio)
}

// ExpectedRoundTime predicts admission-to-answer time for one lookup of the
// kind under current conditions: one full linger window plus one expected
// mesh round (DESIGN.md §3.11). This is the budget-check threshold at every
// rung — admission here, the pre-dispatch check in the fleet's failover
// ladder — and it is per-instance: a slow replica predicts honestly longer
// times than its healthy peers, which is exactly what lets the fleet route
// a tight-deadline lookup to a replica that can still make it. 0 = unknown
// (no round observed yet); unknown never sheds.
func (s *Instance) ExpectedRoundTime(kind Kind) time.Duration {
	if kind >= NumKinds || s.kr[kind] == nil {
		return 0
	}
	round := s.expectedRoundDur(s.kr[kind])
	if round <= 0 {
		return 0
	}
	if s.cfg.Linger > 0 {
		round += s.cfg.Linger
	}
	return round
}

// Lookup submits one membership query and blocks until its round completes,
// ctx is done, or the server refuses it (ErrOverloaded when the admission
// queue is full, ErrClosed after Shutdown).
func (s *Instance) Lookup(ctx context.Context, needle int64) (Result, error) {
	return s.LookupKind(ctx, KindMembership, Args{needle})
}

// LookupKind submits one query of the given kind and blocks until its round
// completes, ctx is done, or the server refuses it (ErrOverloaded when the
// kind's admission queue is full, ErrClosed after Shutdown,
// ErrKindNotServed for a kind this instance does not serve).
func (s *Instance) LookupKind(ctx context.Context, kind Kind, args Args) (Result, error) {
	start := time.Now()
	if kind >= NumKinds || s.kr[kind] == nil {
		return Result{}, ErrKindNotServed
	}
	kr := s.kr[kind]
	// Deadline-budget admission rung (DESIGN.md §3.11): a lookup whose
	// remaining budget cannot cover one linger window plus one expected
	// round is doomed — shed it now instead of letting it queue, linger,
	// and expire mid-round. No deadline, or no observed rounds yet, skips
	// the check.
	var deadline time.Time
	if dl, ok := ctx.Deadline(); ok {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		deadline = dl
		if need := s.ExpectedRoundTime(kind); need > 0 && time.Until(dl) < need {
			s.budgetShed.Add(1)
			if s.obs != nil {
				if tr := obs.FromContext(ctx); tr == nil {
					tr = s.obs.BeginClass(int(kind), obs.ParentFromContext(ctx), args[0], start)
					s.obs.Finish(tr, obs.OutcomeError, ErrBudgetExhausted)
				}
			}
			return Result{}, ErrBudgetExhausted
		}
	}
	// Observability (nil s.obs skips everything, even the ctx lookups): the
	// trace either arrives on ctx — the fleet began it and will finish it —
	// or is begun here, in which case this call finishes it ("creator
	// finalizes": exactly one goroutine may seal a trace).
	var tr *obs.ReqTrace
	created := false
	if s.obs != nil {
		if tr = obs.FromContext(ctx); tr == nil {
			tr = s.obs.BeginClass(int(kind), obs.ParentFromContext(ctx), args[0], start)
			created = true
		}
	}
	req := request{args: args, resp: make(chan response, 1), deadline: deadline, tr: tr}
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		if created {
			s.obs.Finish(tr, obs.OutcomeClosed, ErrClosed)
		}
		return Result{}, ErrClosed
	}
	// The admit mark must land before the queue send: once the request is
	// enqueued the collector owns the trace, and a mark from this goroutine
	// would race the collector's queue-wait mark.
	if tr != nil {
		tr.Mark(obs.StageAdmit)
	}
	// Non-blocking admission under the read lock: Shutdown takes the write
	// lock before closing the queue, so this send cannot race the close.
	select {
	case kr.queue <- req:
		s.mu.RUnlock()
		s.accepted.Add(1)
	default:
		s.mu.RUnlock()
		s.rejected.Add(1)
		if created {
			s.obs.Finish(tr, obs.OutcomeRejected, ErrOverloaded)
		}
		return Result{}, ErrOverloaded
	}
	select {
	case r := <-req.resp:
		// Latency is admission → response; rejected and abandoned lookups
		// never reach a round, so they do not pollute the serving histogram.
		e2e := time.Since(start)
		s.lat.Observe(e2e)
		kr.lat.Observe(e2e)
		if created {
			oc := obs.OutcomeMesh
			if r.err != nil {
				oc = obs.OutcomeError
			}
			s.obs.Finish(tr, oc, r.err)
		}
		return r.res, r.err
	case <-ctx.Done():
		// The round still answers into the buffered resp channel; the
		// abandoned reply is garbage-collected with it. The trace stays with
		// the request — the executor may still be marking stages into it —
		// so it is counted abandoned, never finished or retained.
		if created {
			s.obs.Abandon(tr)
		}
		return Result{}, ctx.Err()
	}
}

// LatencySnapshot exposes the raw latency histogram (the load generator and
// tests compute their own quantiles; /metrics uses the Stats summary).
func (s *Instance) LatencySnapshot() obs.HistSnapshot { return s.lat.Snapshot() }

// LatencyByKind exposes one kind's answered-lookup latency histogram (zero
// snapshot for kinds not served).
func (s *Instance) LatencyByKind(k Kind) obs.HistSnapshot {
	if k >= NumKinds || s.kr[k] == nil {
		return obs.HistSnapshot{}
	}
	return s.kr[k].lat.Snapshot()
}

// collect is one kind's admission stage: it blocks for a round's first
// query, then fills the batch until the kind's batch cap or the linger
// deadline, and hands it to the executor. The one-slot batches channel lets
// the next batch assemble while the current round simulates; batches of
// different kinds interleave in arrival order.
func (s *Instance) collect(kr *kindRuntime) {
	for {
		first, ok := <-kr.queue
		if !ok {
			return
		}
		if first.tr != nil {
			first.tr.Mark(obs.StageQueue)
		}
		batch := append(make([]request, 0, kr.maxBatch), first)
		// Deadline-budget linger rung (DESIGN.md §3.11): lingering is spending
		// the first request's budget, so cap the fill window at what its
		// deadline can afford after one expected round. A batch whose opener
		// has no time to linger starts its round immediately.
		linger := s.cfg.Linger
		if linger > 0 && !first.deadline.IsZero() {
			if afford := time.Until(first.deadline) - s.expectedRoundDur(kr); afford < linger {
				linger = afford
			}
		}
		if linger > 0 {
			timer := time.NewTimer(linger)
		fill:
			for len(batch) < kr.maxBatch {
				select {
				case r, ok := <-kr.queue:
					if !ok {
						break fill
					}
					if r.tr != nil {
						r.tr.Mark(obs.StageQueue)
					}
					batch = append(batch, r)
				case <-timer.C:
					break fill
				}
			}
			timer.Stop()
		} else {
		greedy:
			for len(batch) < kr.maxBatch {
				select {
				case r, ok := <-kr.queue:
					if !ok {
						break greedy
					}
					if r.tr != nil {
						r.tr.Mark(obs.StageQueue)
					}
					batch = append(batch, r)
				default:
					break greedy
				}
			}
		}
		s.batches <- kindBatch{kr: kr, reqs: batch}
	}
}

// execute serves batches until every collector drains, and runs the
// canary of each Probe call between them. It is the only goroutine that
// touches the mesh, which is what makes the recovery ladder's audit and
// budget toggling and breaker bookkeeping lock-free.
func (s *Instance) execute() {
	defer close(s.done)
	for {
		select {
		case b, ok := <-s.batches:
			if !ok {
				return
			}
			s.serveBatch(b.kr, b.reqs)
		case reply := <-s.probes:
			var err error
			switch {
			case s.lameduck.Load():
				err = ErrClosed
			case s.circuitOpen.Load():
				err = s.runCanary()
			}
			reply <- err
		}
	}
}

// Probe asks the executor for one audited, oracle-checked canary round per
// enabled kind while the circuit is open; a clean canary closes the circuit
// (DESIGN.md §3.6). It returns nil when the circuit is closed afterwards —
// by this canary, or because it was not open — the canary's fault when the
// mesh is still untrustworthy, ErrClosed once Shutdown has begun, and
// ctx.Err() when ctx ends first. The instance never probes itself: the
// fleet's prober calls this for every replica whose circuit is open.
func (s *Instance) Probe(ctx context.Context) error {
	if s.lameduck.Load() {
		return ErrClosed
	}
	reply := make(chan error, 1) // the executor never blocks on a gone caller
	select {
	case s.probes <- reply:
	case <-s.done:
		return ErrClosed
	case <-ctx.Done():
		return ctx.Err()
	}
	select {
	case err := <-reply:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Shutdown stops admission and drains: queued and in-flight batches are
// answered through the normal round path. If ctx expires first, the mesh
// run is cancelled through the run-control seam — the in-flight round (and
// any still-queued batch) fails fast with a *mesh.CanceledError delivered
// to its clients — and Shutdown returns ctx.Err(). Safe to call once.
func (s *Instance) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.done
		return nil
	}
	s.closed = true
	s.lameduck.Store(true) // /healthz flips to 503 while the drain runs
	for _, k := range s.kinds {
		close(s.kr[k].queue)
	}
	s.mu.Unlock()

	select {
	case <-s.done:
		s.cancel()
		return nil
	case <-ctx.Done():
		s.cancel()
		<-s.done
		return ctx.Err()
	}
}

// Stats returns a snapshot of the serving counters.
func (s *Instance) Stats() Stats {
	st := Stats{
		Accepted:     s.accepted.Load(),
		Rejected:     s.rejected.Load(),
		Served:       s.served.Load(),
		Failed:       s.failed.Load(),
		BudgetShed:   s.budgetShed.Load(),
		Rounds:       s.rounds.Load(),
		RoundQueries: s.roundQueries.Load(),
		SimSteps:     s.simSteps.Load(),
		LastBatch:    s.lastBatch.Load(),
		PeakBatch:    s.peakBatch.Load(),
		StepBudget:   s.cfg.Budget,

		Retries:        s.retries.Load(),
		Recovered:      s.recovered.Load(),
		CircuitOpens:   s.circuitOpens.Load(),
		CircuitCloses:  s.circuitCloses.Load(),
		CanaryRounds:   s.canaryRounds.Load(),
		CanaryFails:    s.canaryFailures.Load(),
		FaultsAudit:    s.faults[core.FaultAudit].Load(),
		FaultsBudget:   s.faults[core.FaultBudget].Load(),
		FaultsCanceled: s.faults[core.FaultCanceled].Load(),
		FaultsPanic:    s.faults[core.FaultPanic].Load(),
		FaultsOther:    s.faults[core.FaultOther].Load(),
		Health:         s.Health().String(),
		Latency:        s.lat.Snapshot().Summary(),
	}
	for _, k := range s.kinds {
		kr := s.kr[k]
		st.Kinds = append(st.Kinds, KindStats{
			Kind:     k.String(),
			Served:   kr.served.Load(),
			Rounds:   kr.rounds.Load(),
			SimSteps: kr.simSteps.Load(),
			Latency:  kr.lat.Snapshot().Summary(),
		})
	}
	return st
}
