package serve

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
)

// This file is the recovery ladder around the round executor (DESIGN.md
// §3.6). Everything here runs on the executor goroutine — the only
// goroutine that touches the mesh — so audit toggling, per-kind budget
// switching, breaker bookkeeping and canary rounds need no locks; the rest
// of the server observes the outcome through the atomic counters and the
// circuitOpen/lameduck flags.

// errCanaryMismatch is the fault a canary reports when a round completed
// but an answer disagrees with the host oracle — corruption the audit did
// not catch.
var errCanaryMismatch = errors.New("serve: canary answer disagrees with the host oracle")

// serveBatch answers one batch of one kind. Circuit open: fail the batch
// fast with ErrCircuitOpen — no mesh work, no round counted. Circuit
// closed: run the retry ladder — attempt the round, classify any fault,
// re-execute with auditing forced on under jittered backoff, and deliver
// the typed fault when the mesh keeps failing.
func (s *Instance) serveBatch(kr *kindRuntime, batch []request) {
	s.lastBatch.Store(int64(len(batch)))
	if int64(len(batch)) > s.peakBatch.Load() {
		s.peakBatch.Store(int64(len(batch)))
	}
	// One clock read closes the linger span of the whole batch: dequeue →
	// round start, including the wait in the one-slot pipeline channel.
	s.markBatch(batch, obs.StageLinger)

	if s.circuitOpen.Load() {
		// The mesh is distrusted: the fleet re-dispatches these lookups to
		// a replica whose mesh is still trusted, or answers from its oracle.
		s.failBatch(batch, ErrCircuitOpen)
		return
	}

	args := make([]Args, len(batch))
	for i, r := range batch {
		args[i] = r.args
	}
	queries := kr.st.MakeQueries(args)
	var round int64
	var lastErr error
	for attempt := 0; attempt <= s.maxRetries; attempt++ {
		if attempt > 0 {
			s.retries.Add(1)
			s.m.SetAudit(true) // escalate strictness on every re-execution
			ok := s.backoff.Sleep(s.runCtx, attempt-1)
			s.markBatch(batch, obs.StageBackoff)
			if !ok {
				break // server context gone: no point re-executing
			}
		}
		// Deadline-budget retry rung (DESIGN.md §3.11): when no deadline in
		// the batch can survive one more expected round, the attempt would
		// answer nobody — shed the batch with the typed budget error instead
		// of burning the mesh time. Checked before the first attempt too
		// (a batch can expire while waiting in the one-slot pipeline).
		if batchDoomed(batch, s.expectedRoundDur(kr)) {
			if attempt > 0 {
				s.m.SetAudit(s.cfg.Audit)
				s.observeRound(true, false)
			}
			s.budgetShed.Add(int64(len(batch)))
			s.failBatch(batch, ErrBudgetExhausted)
			return
		}
		if attempt == 0 {
			// A round is a batch that reaches the mesh: counted here, past
			// the circuit check and the first budget check, so the per-round
			// gauges describe only batches that ran.
			round = s.rounds.Add(1)
			kr.rounds.Add(1)
			s.roundQueries.Add(int64(len(batch)))
		}
		tag := ""
		if attempt > 0 {
			tag = fmt.Sprintf("retry %d audited", attempt)
		}
		results, h, err := s.meshRound(kr, fmt.Sprintf("serve %s round %d attempt %d", kr.kind, round, attempt), tag, queries)
		// Each attempt — failed ones included — closes its own mesh-round
		// span, so a recovered batch's trace shows mesh/backoff/mesh/...
		s.markBatch(batch, obs.StageMesh)
		if err == nil {
			if attempt > 0 {
				s.recovered.Add(1)
				s.m.SetAudit(s.cfg.Audit)
			}
			// Count before the sends: a Lookup returns as soon as its
			// reply lands, and a returned lookup must already be counted.
			s.served.Add(int64(len(batch)))
			kr.served.Add(int64(len(batch)))
			seq, label := h.Seq(), h.Label()
			for i, r := range batch {
				ans := kr.st.Extract(results, i)
				if r.tr != nil {
					// Cross-link before the resp send: delivery hands the
					// trace back to the Lookup goroutine.
					r.tr.LinkRun(seq, label)
				}
				r.resp <- response{res: Result{
					Kind:    kr.kind,
					Needle:  r.args[0],
					Found:   ans.Found,
					LeafKey: ans.Value,
					Value:   ans.Value,
					Aux:     ans.Aux,
					Steps:   ans.Steps,
					Round:   round,
				}}
			}
			s.observeRound(attempt > 0, false)
			return
		}
		lastErr = err
		class := core.Classify(err)
		s.faults[class].Add(1)
		if !class.Retryable() {
			break
		}
	}
	// The breaker records the terminal failure and opens the circuit; the
	// typed fault surfaces for the fleet to fail over.
	s.m.SetAudit(s.cfg.Audit)
	s.observeRound(true, true)
	s.failBatch(batch, lastErr)
}

// batchDoomed reports whether every request of the batch carries a deadline
// that cannot survive one more round of the given expected duration: the
// shed condition of the retry-ladder budget rung. A single request without a
// deadline (or with budget to spare) keeps the batch alive — the round runs
// and answers whoever is still listening.
func batchDoomed(batch []request, need time.Duration) bool {
	now := time.Now()
	for _, r := range batch {
		if r.deadline.IsZero() || r.deadline.Sub(now) > need {
			return false
		}
	}
	return true
}

// failBatch delivers one error to every query of the batch.
func (s *Instance) failBatch(batch []request, err error) {
	s.failed.Add(int64(len(batch)))
	for _, r := range batch {
		r.resp <- response{err: err}
	}
}

// meshRound executes one mesh attempt of one kind: install the kind's step
// budget, reset the step clock (per-attempt budget, fresh traced run —
// tagged when the attempt is a retry or canary), load the queries against
// the kind's resident structure, and run its multisearch inside the
// core.Run containment boundary. The returned trace.Handle names this
// attempt's step-clock run (inert when no tracer is installed): tagging goes
// through it — keyed to the run, not "most recently attached", which was a
// cross-goroutine race when concurrent instances shared one Tracer — and the
// observability layer embeds its Seq/Label in the request traces it links.
func (s *Instance) meshRound(kr *kindRuntime, label, tag string, queries []core.Query) ([]core.Query, trace.Handle, error) {
	if s.m.Budget() != kr.budget {
		s.m.SetBudget(kr.budget) // per-kind budget, quiescent between rounds
	}
	s.m.ResetSteps()
	h, _ := trace.HandleFor(s.m.TraceRun())
	if tag != "" {
		h.Tag(tag)
	}
	t0 := time.Now()
	err := core.Run(label, func() error {
		v := s.m.Root()
		defer trace.Span(v, "%s q=%d", label, len(queries))()
		kr.in.ResetQueries(v, queries)
		kr.st.Search(v, kr.in)
		return nil
	})
	steps := s.m.Steps()
	s.simSteps.Add(steps)
	kr.simSteps.Add(steps)
	if err != nil {
		return nil, h, err
	}
	// Completed rounds train the expected-round-time model (§3.11): wall
	// time over charged steps. A latency-injected mesh completes its rounds
	// slowly but correctly, so its growing ns/step ratio is exactly the gray
	// failure signal the budget checks and the fleet's ejection score read.
	s.observeStepRatio(kr, steps, time.Since(t0))
	return kr.in.ResultQueries(), h, nil
}

// markBatch closes one stage span on every traced request of the batch with
// a single clock read, so all of a round's traces agree on where the batch
// boundary fell. No-op (no clock read) when observability is off.
func (s *Instance) markBatch(batch []request, stage obs.Stage) {
	if s.obs == nil {
		return
	}
	now := time.Now()
	for _, r := range batch {
		if r.tr != nil {
			r.tr.MarkAt(stage, now)
			if stage == obs.StageMesh {
				r.tr.Attempts++
			}
		}
	}
}

// observeRound feeds the circuit breaker with one mesh-path outcome.
// firstAttemptFailed is the breaker's signal (it measures mesh fault rate,
// not user-visible failures — a recovered round still counts against the
// window); terminal means the whole ladder failed, which opens the circuit
// immediately rather than waiting for the window to fill.
func (s *Instance) observeRound(firstAttemptFailed, terminal bool) {
	open := s.brk.record(firstAttemptFailed)
	if terminal || open {
		s.openCircuit()
	}
}

// openCircuit transitions healthy → degraded (idempotent).
func (s *Instance) openCircuit() {
	if s.circuitOpen.CompareAndSwap(false, true) {
		s.circuitOpens.Add(1)
		s.brk.reset()
	}
}

// closeCircuit transitions degraded → healthy (idempotent).
func (s *Instance) closeCircuit() {
	if s.circuitOpen.CompareAndSwap(true, false) {
		s.circuitCloses.Add(1)
		s.brk.reset()
	}
}

// runCanary probes the mesh with one audited round per enabled kind over
// each kind's small synthetic probe set, and closes the circuit only when
// every round completes and every answer agrees with the kind's host
// oracle; otherwise it returns the first fault. Canary answers go nowhere —
// the probe exists only to decide whether real traffic can trust the mesh
// again, and a mesh distrusted for one kind is distrusted for all (the
// fault classes are mesh-level, not structure-level). Called only while the
// circuit is open, so every canary either fails or closes the circuit.
func (s *Instance) runCanary() error {
	s.canaryRounds.Add(1)
	s.m.SetAudit(true)
	defer s.m.SetAudit(s.cfg.Audit)
	for _, kind := range s.kinds {
		kr := s.kr[kind]
		probes := kr.st.Canary()
		if len(probes) > s.m.N() {
			probes = probes[:s.m.N()]
		}
		queries := kr.st.MakeQueries(probes)
		results, _, err := s.meshRound(kr, fmt.Sprintf("canary %s %d", kind, s.canaryRounds.Load()), "canary", queries)
		if err != nil {
			s.canaryFailures.Add(1)
			s.faults[core.Classify(err)].Add(1)
			return err
		}
		for i, probe := range probes {
			got := kr.st.Extract(results, i)
			want := HostAnswer(kr.st, probe)
			if got.Found != want.Found || got.Value != want.Value {
				s.canaryFailures.Add(1) // silent corruption the audit did not catch
				return errCanaryMismatch
			}
		}
	}
	s.closeCircuit()
	return nil
}
