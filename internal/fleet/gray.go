package fleet

// Gray-failure resilience (DESIGN.md §3.11): hedged dispatch and
// latency-aware replica ejection. A gray-failed replica answers correctly
// and reports Healthy — its breaker sees no faults — but runs an outlier
// multiple slower than its peers (a latency fault injector, a noisy
// neighbour, a thermally throttled core). Crash detection and the breaker
// ladder never notice; these two mechanisms do:
//
//	hedge  — per-dispatch: when the picked replica has not answered within
//	         the hedge delay (a multiple of the recent per-replica p99
//	         median), the same lookup is speculatively re-dispatched to the
//	         next-preferred replica; the first answer wins and the loser is
//	         cancelled.
//	eject  — per-replica: every answered dispatch feeds an EWMA latency
//	         score; a replica whose score exceeds a configurable multiple
//	         of the fleet median is ejected — a fourth health state beside
//	         healthy/degraded/lame-duck — and re-admitted only when the
//	         fleet's prober measures it back within bounds.
//
// Hedging hides the slow replica from this request; ejection hides it from
// all subsequent ones. The censored-sample rule ties them together: a
// cancelled hedge loser ran *at least* its elapsed time, and that lower
// bound feeds the score, so a replica that is always hedged around still
// accumulates the slow samples that get it ejected.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// HedgeConfig configures speculative re-dispatch of slow lookups.
type HedgeConfig struct {
	// Enabled turns hedging on (default off: hedges cost duplicate work).
	Enabled bool
	// Delay is a fixed hedge delay. Zero derives the delay adaptively:
	// P99Multiple times the median of the per-replica dispatch p99s.
	Delay time.Duration
	// P99Multiple scales the derived delay (default 3). Ignored with Delay.
	P99Multiple float64
	// MinDelay floors the derived delay (default 1ms) so a fast fleet does
	// not hedge every lookup on scheduler noise. Ignored with Delay.
	MinDelay time.Duration
	// MinSamples is how many answered dispatches a replica needs before its
	// p99 joins the delay derivation (default 16). Until some replica
	// qualifies no hedge fires — a cold fleet has no "slow" yet.
	MinSamples int64
}

// EjectConfig configures latency-outlier ejection.
type EjectConfig struct {
	// Enabled turns automatic ejection and the prober's re-admission
	// lookups on. Manual EjectReplica/ReadmitReplica work regardless.
	Enabled bool
	// Multiple ejects a replica whose EWMA latency score exceeds Multiple
	// times the fleet median (default 4).
	Multiple float64
	// ReadmitMultiple re-admits an ejected replica once probes pull its
	// score to at most ReadmitMultiple times the median (default 1.5; must
	// be below Multiple or the replica flaps).
	ReadmitMultiple float64
	// MinSamples is the score sample floor before a replica can be ejected
	// or counted in the median (default 16).
	MinSamples int64
	// ProbeTimeout bounds one probe of the fleet's prober (default 1s): a
	// timed lookup on an ejected replica, or a canary on a circuit-open
	// one. A lookup probe that times out records the timeout as a
	// censored latency sample.
	ProbeTimeout time.Duration
}

func (c *HedgeConfig) setDefaults() {
	if c.P99Multiple <= 0 {
		c.P99Multiple = 3
	}
	if c.MinDelay <= 0 {
		c.MinDelay = time.Millisecond
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 16
	}
}

func (c *EjectConfig) setDefaults() {
	if c.Multiple <= 0 {
		c.Multiple = 4
	}
	if c.ReadmitMultiple <= 0 {
		c.ReadmitMultiple = 1.5
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 16
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
}

// noteLatency feeds one answered-dispatch (or censored hedge-loser)
// duration into replica i's latency score and histogram, then re-evaluates
// ejection. The EWMA uses α=1/4 — the same shift as the instance-side
// step-ratio model — via CAS so concurrent dispatches never lose samples.
func (f *Fleet) noteLatency(i int, d time.Duration) {
	r := f.reps[i]
	r.lat.Observe(d)
	ns := d.Nanoseconds()
	for {
		old := r.ewmaNS.Load()
		nw := ns
		if old > 0 {
			nw = old + (ns-old)/4
		}
		if r.ewmaNS.CompareAndSwap(old, nw) {
			break
		}
	}
	n := r.latSamples.Add(1)
	if f.cfg.Eject.Enabled {
		f.evalEjection(i, n)
	}
}

// latencyMedian is the fleet's reference point for "normal": the median
// EWMA score across up replicas with enough samples (ejected replicas
// included — with few replicas, excluding the outlier would make the
// median circular). Zero when no replica qualifies yet.
func (f *Fleet) latencyMedian() time.Duration {
	var scores []int64
	for _, r := range f.reps {
		r.mu.RLock()
		down := r.down
		r.mu.RUnlock()
		if down {
			continue
		}
		if r.latSamples.Load() < f.cfg.Eject.MinSamples {
			continue
		}
		if s := r.ewmaNS.Load(); s > 0 {
			scores = append(scores, s)
		}
	}
	if len(scores) == 0 {
		return 0
	}
	sort.Slice(scores, func(a, b int) bool { return scores[a] < scores[b] })
	mid := len(scores) / 2
	if len(scores)%2 == 0 {
		return time.Duration((scores[mid-1] + scores[mid]) / 2)
	}
	return time.Duration(scores[mid])
}

// evalEjection applies the outlier rule to replica i after its n-th sample.
// Automatic ejection never takes the last routable replica — a slow answer
// beats an oracle answer — but manual EjectReplica can.
func (f *Fleet) evalEjection(i int, n int64) {
	if n < f.cfg.Eject.MinSamples {
		return
	}
	med := f.latencyMedian()
	if med <= 0 {
		return
	}
	r := f.reps[i]
	score := float64(r.ewmaNS.Load())
	if r.ejected.Load() {
		if score <= f.cfg.Eject.ReadmitMultiple*float64(med) {
			f.readmitReplica(i)
		}
		return
	}
	if score >= f.cfg.Eject.Multiple*float64(med) && f.routableBesides(i) > 0 {
		f.markEjected(i)
	}
}

// routableBesides counts replicas other than i that could take traffic.
func (f *Fleet) routableBesides(i int) int {
	n := 0
	for _, v := range f.views() {
		if v.Index != i && routable(v, func(int) bool { return false }) {
			n++
		}
	}
	return n
}

func (f *Fleet) markEjected(i int) {
	if f.reps[i].ejected.CompareAndSwap(false, true) {
		f.ejections.Add(1)
	}
}

func (f *Fleet) readmitReplica(i int) {
	if f.reps[i].ejected.CompareAndSwap(true, false) {
		f.readmissions.Add(1)
	}
}

// EjectReplica manually ejects replica i from routing (ops drain, tests).
// Unlike automatic ejection it may take the last routable replica — the
// operator said so — which drives fleet health to Degraded and /healthz to
// 503 until probes (or ReadmitReplica) bring one back.
func (f *Fleet) EjectReplica(i int) error {
	if i < 0 || i >= len(f.reps) {
		return fmt.Errorf("fleet: no replica %d", i)
	}
	f.markEjected(i)
	return nil
}

// ReadmitReplica manually clears replica i's ejection.
func (f *Fleet) ReadmitReplica(i int) error {
	if i < 0 || i >= len(f.reps) {
		return fmt.Errorf("fleet: no replica %d", i)
	}
	f.readmitReplica(i)
	return nil
}

// probe is the fleet's one prober, running for the fleet's lifetime until
// Shutdown stops it. Every ProbeInterval it visits each live replica:
//
//   - circuit open: serve.Instance.Probe runs an audited, oracle-checked
//     canary round on the replica's executor, and a clean one closes the
//     circuit (the breaker is the instance's; the schedule is the fleet's);
//   - latency-ejected (with Eject.Enabled): probeReplica times one
//     oracle-checked lookup, and fast probes decay the EWMA score until the
//     readmit rule fires.
func (f *Fleet) probe() {
	defer close(f.probeDone)
	t := time.NewTicker(f.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-f.probeStop:
			return
		case <-t.C:
		}
		for i, r := range f.reps {
			inst := f.instance(i)
			if inst == nil {
				continue
			}
			if inst.Health() == serve.Degraded {
				ctx, cancel := context.WithTimeout(context.Background(), f.cfg.Eject.ProbeTimeout)
				_ = inst.Probe(ctx) // a failed canary leaves the circuit open
				cancel()
			}
			if f.cfg.Eject.Enabled && r.ejected.Load() {
				f.probeReplica(i, inst)
			}
		}
	}
}

// probeReplica sends one membership lookup (every replica serves
// membership) to an ejected replica and scores the round trip. Answers are
// checked against the fleet oracle: a wrong answer records no sample
// (correctness is the breaker ladder's jurisdiction — ejection only ever
// reasons about time).
func (f *Fleet) probeReplica(i int, inst *serve.Instance) {
	st := f.ss.Get(serve.KindMembership)
	args := st.Canary()[0]
	ctx, cancel := context.WithTimeout(context.Background(), f.cfg.Eject.ProbeTimeout)
	defer cancel()
	f.ejectProbes.Add(1)
	start := time.Now()
	res, err := inst.LookupKind(ctx, serve.KindMembership, args)
	d := time.Since(start)
	if err != nil {
		// Timed out or faulted: the probe ran at least this long — a
		// censored sample that keeps a still-slow replica's score honest.
		f.noteLatency(i, d)
		return
	}
	want := serve.HostAnswer(st, args)
	if res.Found != want.Found || res.Value != want.Value {
		return
	}
	f.noteLatency(i, d)
}

// hedgeDelay resolves the current hedge delay: the fixed configured delay,
// or P99Multiple × the median per-replica dispatch p99 (replicas with at
// least MinSamples answered dispatches), floored by MinDelay and cached for
// 100ms so the percentile scan is off the per-dispatch path. Zero means
// "no data yet — do not hedge".
func (f *Fleet) hedgeDelay() time.Duration {
	if f.cfg.Hedge.Delay > 0 {
		return f.cfg.Hedge.Delay
	}
	const cacheFor = int64(100 * time.Millisecond)
	now := time.Now().UnixNano()
	if now-f.hedgeDelayAt.Load() < cacheFor {
		return time.Duration(f.hedgeDelayNS.Load())
	}
	var p99s []int64
	for _, r := range f.reps {
		if r.latSamples.Load() < f.cfg.Hedge.MinSamples {
			continue
		}
		if p := r.lat.Snapshot().Quantile(0.99).Nanoseconds(); p > 0 {
			p99s = append(p99s, p)
		}
	}
	var d time.Duration
	if len(p99s) > 0 {
		sort.Slice(p99s, func(a, b int) bool { return p99s[a] < p99s[b] })
		d = time.Duration(f.cfg.Hedge.P99Multiple * float64(p99s[len(p99s)/2]))
		if d < f.cfg.Hedge.MinDelay {
			d = f.cfg.Hedge.MinDelay
		}
	}
	f.hedgeDelayNS.Store(int64(d))
	f.hedgeDelayAt.Store(now)
	return d
}

// pickStrict picks the hedge target: next-preferred by the same policy,
// never an ejected replica (hedging onto a known outlier helps nobody).
func (f *Fleet) pickStrict(tried uint64) int {
	return f.policy.Pick(f.views(), func(i int) bool { return tried&(1<<uint(i)) != 0 })
}

// pick is the dispatch loop's replica choice: the policy's strict pick
// first; when that fails and ejected replicas exist, one more pass with
// ejection masked — a last resort, because an ejected replica's slow answer
// still beats an oracle answer.
func (f *Fleet) pick(tried uint64) int {
	vs := f.views()
	skip := func(i int) bool { return tried&(1<<uint(i)) != 0 }
	if idx := f.policy.Pick(vs, skip); idx >= 0 {
		return idx
	}
	masked := false
	for i := range vs {
		if vs[i].Ejected {
			vs[i].Ejected = false
			masked = true
		}
	}
	if !masked {
		return -1
	}
	return f.policy.Pick(vs, skip)
}

// dispatchHedged runs one dispatch of the failover ladder against replica
// primary, speculatively adding a second replica if the first has not
// answered within the hedge delay. Returns the winning answer, which
// replica produced it, and whether a hedge (not the primary) won.
//
// Trace safety: the fleet trace on ctx is single-owner, and two racing
// attempts would both write stage marks into it — so every hedged attempt
// runs on a detached context (obs.DetachContext) where the instance begins
// and finishes its own child trace under the same propagated TraceID; the
// fleet goroutine alone touches the fleet trace. With hedging off (or no
// delay derivable yet) the dispatch is the plain single-attempt call on the
// undetached ctx, exactly as before this mechanism existed.
func (f *Fleet) dispatchHedged(ctx context.Context, kind serve.Kind, args serve.Args, primary int, inst *serve.Instance, tried *uint64) (serve.Result, int, bool, error) {
	var delay time.Duration
	if f.cfg.Hedge.Enabled {
		delay = f.hedgeDelay()
	}
	if delay <= 0 {
		start := time.Now()
		res, err := inst.LookupKind(ctx, kind, args)
		if err == nil {
			f.noteLatency(primary, time.Since(start))
		}
		return res, primary, false, err
	}

	type attempt struct {
		res serve.Result
		err error
		idx int
	}
	actx := obs.DetachContext(ctx)
	ch := make(chan attempt, 2) // buffered: a cancelled loser must not leak
	launch := func(idx int, in *serve.Instance, c context.Context) {
		start := time.Now()
		res, err := in.LookupKind(c, kind, args)
		d := time.Since(start)
		if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// A win trains the score; a cancelled loser ran *at least* d —
			// the censored sample that lets a hedged-around replica still
			// accumulate the slow evidence that ejects it.
			f.noteLatency(idx, d)
		}
		ch <- attempt{res: res, err: err, idx: idx}
	}

	pctx, pcancel := context.WithCancel(actx)
	defer pcancel()
	go launch(primary, inst, pctx)
	inflight := 1

	timer := time.NewTimer(delay)
	defer timer.Stop()
	hedged := false
	var hcancel context.CancelFunc
	var lastErr error
	for inflight > 0 {
		select {
		case <-timer.C:
			if hedged {
				continue
			}
			hedged = true // one hedge per dispatch
			hidx := f.pickStrict(*tried)
			if hidx < 0 {
				continue
			}
			hinst := f.instance(hidx)
			if hinst == nil {
				continue
			}
			if dl, ok := ctx.Deadline(); ok {
				if need := hinst.ExpectedRoundTime(kind); need > 0 && time.Until(dl) < need {
					continue // the hedge itself would be doomed work
				}
			}
			*tried |= 1 << uint(hidx)
			f.hedges.Add(1)
			hctx, cancel := context.WithCancel(actx)
			defer cancel() // also fired early via hcancel when the primary wins
			hcancel = cancel
			go launch(hidx, hinst, hctx)
			inflight++
		case a := <-ch:
			inflight--
			if a.err == nil {
				// First answer wins; cancel the other attempt.
				pcancel()
				if hcancel != nil {
					hcancel()
				}
				win := hedged && a.idx != primary
				if win {
					f.hedgeWins.Add(1)
				}
				return a.res, a.idx, win, nil
			}
			lastErr = a.err
		}
	}
	return serve.Result{}, primary, false, lastErr
}
