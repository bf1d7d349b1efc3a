package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"

	"repro/internal/obs"
	"repro/internal/serve"
)

// Handler returns meshserve's HTTP surface, the only one in the stack
// (a single instance is served as a fleet of one):
//
//	GET /search?key=K — one lookup through the router and failover ladder;
//	                    ?kind= selects the query family, each with its own
//	                    integer parameters (serve.SearchParams). The JSON
//	                    answer carries the serving replica index (-1 for a
//	                    fleet-oracle answer). 400 for an unknown kind,
//	                    missing/malformed parameters, or a kind the fleet
//	                    does not serve; 429 only when every routable replica
//	                    rejected with overload, 503 after Shutdown — the
//	                    Retry-After on both is the *least-loaded healthy*
//	                    replica's estimate, the soonest the fleet could
//	                    accept work; 504 when the X-Deadline-Budget ran out
//	                    before any replica could answer (§3.11); 499/408
//	                    when the client's own context fired; 500 for a
//	                    failed lookup (only reachable with DisableOracle).
//	GET /healthz      — 200 while at least one replica is healthy and not
//	                    latency-ejected; 503 only when none is (all
//	                    degraded/crashed/ejected) or the fleet is draining.
//	                    A single replica loss is the fleet working as
//	                    designed, not an incident.
//	GET /metrics      — fleet stats (routing, failover, crash/restart,
//	                    time-to-healthy), per-replica state, the summed
//	                    per-instance serving counters under "serve", and the
//	                    mesh-path gauges derived from them.
//	                    ?format=prometheus switches to the Prometheus text
//	                    exposition.
//	GET /debug/traces — retained wall-clock request traces (requires
//	                    Config.Obs; see obs.Observer.DebugHandler).
func (f *Fleet) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/search", f.handleSearch)
	mux.HandleFunc("/healthz", f.handleHealthz)
	mux.HandleFunc("/metrics", f.handleMetrics)
	if f.obs != nil {
		mux.Handle("/debug/traces", f.obs.DebugHandler())
	} else {
		mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, _ *http.Request) {
			http.Error(w, "fleet: request tracing disabled (Config.Obs is nil)", http.StatusNotFound)
		})
	}
	return mux
}

// traceCtx threads an incoming W3C traceparent into the lookup context —
// minting a fresh trace ID when the request carries none, or a malformed
// one, which the spec says to ignore — so the fleet trace adopts the wire
// ID and the response echoes it for client-side correlation with
// /debug/traces records.
func (f *Fleet) traceCtx(w http.ResponseWriter, r *http.Request) context.Context {
	ctx := r.Context()
	if f.obs == nil {
		return ctx
	}
	id, err := obs.ParseTraceparent(r.Header.Get("traceparent"))
	if err != nil {
		id = obs.NewTraceID()
	}
	w.Header().Set("Traceparent", id.Traceparent())
	return obs.ContextWithParent(ctx, id)
}

func (f *Fleet) handleSearch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	kind, err := serve.ParseKind(q.Get("kind"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	args, err := serve.ParseSearchArgs(kind, q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// The X-Deadline-Budget header becomes a real context deadline here, so
	// the whole ladder below — fleet budget rung, instance admission, batch
	// linger, retries, hedges — sees one consistent remaining budget.
	ctx, cancel := serve.WithDeadlineBudget(f.traceCtx(w, r), r)
	defer cancel()
	res, err := f.LookupKind(ctx, kind, args)
	switch {
	case errors.Is(err, serve.ErrKindNotServed):
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	case errors.Is(err, serve.ErrOverloaded):
		w.Header().Set("Retry-After", serve.RetryAfterSeconds(f.RetryAfterHint()))
		http.Error(w, err.Error(), http.StatusTooManyRequests)
		return
	case errors.Is(err, serve.ErrClosed):
		w.Header().Set("Retry-After", serve.RetryAfterSeconds(f.RetryAfterHint()))
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	case errors.Is(err, serve.ErrBudgetExhausted):
		// Deadline budget below every replica's expected round time: the
		// fleet shed the work rather than answer past the deadline. 504 —
		// the server gave up on the client's behalf — rather than a 5xx
		// that reads as a server fault.
		http.Error(w, err.Error(), http.StatusGatewayTimeout)
		return
	case r.Context().Err() == nil && errors.Is(err, context.DeadlineExceeded):
		// A deadline fired that the client's own context did not carry: the
		// X-Deadline-Budget header's server-side deadline ran out mid-flight.
		http.Error(w, err.Error(), http.StatusGatewayTimeout)
		return
	case r.Context().Err() != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)):
		// The *request's* context fired: the client disconnected (Canceled)
		// or its per-request deadline lapsed (DeadlineExceeded). That is a
		// client-side outcome, not a server error — 4xx class, so
		// disconnect storms don't read as a 500 spike.
		status := serve.StatusClientClosedRequest
		if errors.Is(err, context.DeadlineExceeded) {
			status = http.StatusRequestTimeout
		}
		http.Error(w, err.Error(), status)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, res)
}

func (f *Fleet) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	h := f.Health()
	st := f.Stats()
	doc := map[string]any{
		"health":                  h.String(),
		"replicas":                st.Replicas,
		"healthy_replicas":        st.HealthyReplicas,
		"degraded_replicas":       st.DegradedReplicas,
		"down_replicas":           st.DownReplicas,
		"ejected_replicas":        st.EjectedReplicas,
		"crashes":                 st.Crashes,
		"restarts":                st.Restarts,
		"last_time_to_healthy_ns": st.LastTimeToHealthy,
	}
	w.Header().Set("Content-Type", "application/json")
	if h != serve.Healthy {
		w.Header().Set("Retry-After", serve.RetryAfterSeconds(f.RetryAfterHint()))
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(doc)
}

func (f *Fleet) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// The Prometheus text exposition lives beside the JSON document, not in
	// place of it: loadgen.HTTPTarget and perfbench scrape the JSON shape,
	// Prometheus scrapers ask for ?format=prometheus.
	if r.URL.Query().Get("format") == "prometheus" {
		f.promMetrics(w)
		return
	}
	st := f.Stats()
	agg := st.Agg
	doc := map[string]any{
		"fleet":     st,
		"serve":     agg, // instance-shaped aggregate for shared scrapers
		"health":    st.Health,
		"side":      f.Side(),
		"keys":      len(f.bt.Keys),
		"max_batch": f.MaxBatch(),
	}
	doc["kinds"] = st.ByKind
	if st.Dispatched > 0 {
		doc["failover_fraction"] = float64(st.FailoverServed) / float64(st.Dispatched)
		doc["oracle_fraction"] = float64(st.OracleServed) / float64(st.Dispatched)
	}
	// Per-round gauges describe the mesh path only. Replicas run without an
	// oracle rung of their own, so every answer they served rode a mesh
	// round; fleet-oracle answers consume no round and show up in
	// degraded_fraction instead of deflating sim_steps_per_round. Counters
	// loaded at slightly different instants can transiently go negative
	// under a concurrent snapshot, so in_flight is clamped.
	if agg.Rounds > 0 {
		doc["queries_per_round"] = float64(agg.Served+agg.Failed) / float64(agg.Rounds)
		doc["sim_steps_per_round"] = float64(agg.SimSteps) / float64(agg.Rounds)
	}
	if answered := st.FirstPickServed + st.FailoverServed + st.OracleServed; answered > 0 {
		doc["degraded_fraction"] = float64(st.OracleServed) / float64(answered)
	}
	doc["in_flight"] = max(agg.Accepted-agg.Served-agg.Failed, 0)
	if agg.Recovered > 0 {
		doc["recovered_rounds"] = agg.Recovered
	}
	writeJSON(w, doc)
}

// promMetrics renders the Prometheus text exposition: routing and failover
// counters, per-replica gauges and outcome-split dispatch latency under
// meshfleet_; the summed serving counters, breaker and queue gauges, and the
// bucket-exact merge of every live replica's serving histograms under
// meshserve_; and (with Config.Obs) the per-stage decomposition and SLO
// burn gauges, also under meshserve_.
func (f *Fleet) promMetrics(w http.ResponseWriter) {
	st := f.Stats()
	views := f.views()
	pw := obs.NewPromWriter()

	pw.Counter("meshfleet_dispatched_total", "Lookups dispatched through the router.", float64(st.Dispatched))
	pw.Counter("meshfleet_failovers_total", "Re-dispatch attempts after a failed pick.", float64(st.Failovers))
	pw.Counter("meshfleet_answers_total", "Answered lookups by serving rung.", float64(st.FirstPickServed), "rung", "first_pick")
	pw.Counter("meshfleet_answers_total", "Answered lookups by serving rung.", float64(st.FailoverServed), "rung", "failover")
	pw.Counter("meshfleet_answers_total", "Answered lookups by serving rung.", float64(st.OracleServed), "rung", "oracle")
	pw.Counter("meshfleet_overloaded_total", "Lookups rejected with every routable replica admission-full.", float64(st.OverloadedAll))
	pw.Counter("meshfleet_unrouted_total", "Lookups that found no routable replica.", float64(st.Unrouted))
	pw.Counter("meshfleet_crashes_total", "Replica crashes.", float64(st.Crashes))
	pw.Counter("meshfleet_restarts_total", "Replica restarts.", float64(st.Restarts))
	pw.Counter("meshfleet_budget_shed_total", "Dispatches skipped: deadline budget below the replica's expected round time.", float64(st.BudgetShed))
	pw.Counter("meshfleet_hedges_total", "Speculative second dispatches launched.", float64(st.Hedges))
	pw.Counter("meshfleet_hedge_wins_total", "Hedged dispatches whose answer arrived first.", float64(st.HedgeWins))
	pw.Counter("meshfleet_ejections_total", "Latency-outlier replica ejections.", float64(st.Ejections))
	pw.Counter("meshfleet_readmissions_total", "Ejections cleared by probes or operators.", float64(st.Readmissions))
	pw.Counter("meshfleet_eject_probes_total", "Canary probes sent to ejected replicas.", float64(st.EjectProbes))
	pw.Gauge("meshfleet_ejected_replicas", "Replicas currently latency-ejected.", float64(st.EjectedReplicas))

	pw.Gauge("meshfleet_replicas", "Configured replica count.", float64(st.Replicas))
	pw.Gauge("meshfleet_last_time_to_healthy_seconds", "Most recent crash-to-healthy duration.", float64(st.LastTimeToHealthy)/1e9)
	for _, rv := range views {
		idx := strconv.Itoa(rv.Index)
		pw.Gauge("meshfleet_replica_up", "1 while the replica is routable.", boolGauge(rv.Up), "replica", idx)
		health := "down"
		if rv.Up {
			health = rv.Health.String()
		}
		pw.Gauge("meshfleet_replica_healthy", "1 while the replica reports healthy.", boolGauge(rv.Up && rv.Health == serve.Healthy), "replica", idx, "health", health)
		pw.Gauge("meshfleet_replica_queue_depth", "Replica admission-queue depth.", float64(rv.QueueLen), "replica", idx)
		pw.Gauge("meshfleet_replica_latency_ewma_seconds", "Per-replica EWMA dispatch-latency score (the ejection signal).", float64(rv.LatencyEWMA)/1e9, "replica", idx)
		pw.Gauge("meshfleet_replica_ejected", "1 while the replica is latency-ejected.", boolGauge(rv.Ejected), "replica", idx)
		rep := f.reps[rv.Index]
		rep.mu.RLock()
		crashes := rep.crashes
		rep.mu.RUnlock()
		pw.Counter("meshfleet_replica_crashes_total", "Crashes of this replica slot.", float64(crashes), "replica", idx)
	}

	// Per-kind routing: lookups of each query family, how many fell through
	// to the fleet oracle, and the kind's dispatch latency.
	for _, kr := range st.ByKind {
		pw.Counter("meshfleet_kind_served_total", "Answered lookups by query kind.", float64(kr.Served), "kind", kr.Kind)
		pw.Counter("meshfleet_kind_oracle_total", "Fleet-oracle answers by query kind.", float64(kr.OracleServed), "kind", kr.Kind)
	}
	for _, k := range f.ss.Kinds() {
		pw.Histogram("meshfleet_kind_request_duration_seconds", "Dispatch-to-answer latency by query kind.", f.kindLat[k].Snapshot(), "kind", k.String())
	}

	// Fleet-level dispatch latency, combined + by rung.
	lat := f.lat.Snapshot()
	pw.Histogram("meshfleet_request_duration_seconds", "Dispatch-to-answer latency.", lat, "rung", "all")
	pw.Histogram("meshfleet_request_duration_seconds", "Dispatch-to-answer latency.", f.latFailover.Snapshot(), "rung", "failover")
	pw.Histogram("meshfleet_request_duration_seconds", "Dispatch-to-answer latency.", f.latOracle.Snapshot(), "rung", "oracle")

	f.promServe(pw, st.Agg, views)

	if f.obs != nil {
		pw.WriteObserver("meshserve", f.obs)
		pw.WriteLatencyBurn("meshserve", f.obs, lat)
	}
	w.Header().Set("Content-Type", obs.ContentType)
	_, _ = w.Write(pw.Bytes())
}

// promServe renders the serving families: the counters summed over every
// incarnation of every replica (Stats.Agg), the fleet's health and the
// replicas' breaker and queue gauges, and the serving latency merged
// bucket-exact across live replicas (fixed boundaries sum losslessly).
func (f *Fleet) promServe(pw *obs.PromWriter, agg serve.Stats, views []ReplicaView) {
	pw.Counter("meshserve_lookups_total", "Lookups by admission outcome.", float64(agg.Accepted), "result", "accepted")
	pw.Counter("meshserve_lookups_total", "Lookups by admission outcome.", float64(agg.Rejected), "result", "rejected")
	pw.Counter("meshserve_answers_total", "Answered lookups by serving path.", float64(agg.Served-agg.Degraded), "path", "mesh")
	pw.Counter("meshserve_answers_total", "Answered lookups by serving path.", float64(agg.Degraded), "path", "oracle")
	pw.Counter("meshserve_answers_total", "Answered lookups by serving path.", float64(agg.Failed), "path", "error")
	pw.Counter("meshserve_rounds_total", "Serving rounds by kind.", float64(agg.Rounds-agg.DegradedRounds), "kind", "mesh")
	pw.Counter("meshserve_rounds_total", "Serving rounds by kind.", float64(agg.DegradedRounds), "kind", "degraded")
	pw.Counter("meshserve_rounds_total", "Serving rounds by kind.", float64(agg.CanaryRounds), "kind", "canary")
	pw.Counter("meshserve_sim_steps_total", "Simulated mesh steps across all rounds.", float64(agg.SimSteps))
	pw.Counter("meshserve_retries_total", "Audited re-executions of failed rounds.", float64(agg.Retries))
	pw.Counter("meshserve_budget_shed_total", "Lookups shed with the deadline budget exhausted.", float64(agg.BudgetShed))
	pw.Counter("meshserve_recovered_rounds_total", "Rounds that failed, then succeeded on a retry.", float64(agg.Recovered))
	pw.Counter("meshserve_faults_total", "Round attempts failed, by fault class.", float64(agg.FaultsAudit), "class", "audit")
	pw.Counter("meshserve_faults_total", "Round attempts failed, by fault class.", float64(agg.FaultsBudget), "class", "budget")
	pw.Counter("meshserve_faults_total", "Round attempts failed, by fault class.", float64(agg.FaultsCanceled), "class", "canceled")
	pw.Counter("meshserve_faults_total", "Round attempts failed, by fault class.", float64(agg.FaultsPanic), "class", "panic")
	pw.Counter("meshserve_faults_total", "Round attempts failed, by fault class.", float64(agg.FaultsOther), "class", "other")
	pw.Counter("meshserve_circuit_transitions_total", "Circuit breaker transitions.", float64(agg.CircuitOpens), "to", "open")
	pw.Counter("meshserve_circuit_transitions_total", "Circuit breaker transitions.", float64(agg.CircuitCloses), "to", "closed")

	// Health as a one-hot gauge family; breaker and queue state summed over
	// the live replicas.
	h := f.Health()
	for _, state := range []serve.Health{serve.Healthy, serve.Degraded, serve.LameDuck} {
		pw.Gauge("meshserve_health_state", "Current health state (one-hot).", boolGauge(h == state), "state", state.String())
	}
	var open, depth, capacity int
	for _, rv := range views {
		if !rv.Up {
			continue
		}
		if rv.Health == serve.Degraded {
			open++
		}
		depth += rv.QueueLen
		capacity += rv.QueueCap
	}
	pw.Gauge("meshserve_circuit_open", "Live replicas whose circuit breaker is open.", float64(open))
	pw.Gauge("meshserve_queue_depth", "Current admission-queue depth, summed over live replicas.", float64(depth))
	pw.Gauge("meshserve_queue_capacity", "Admission-queue capacity, summed over live replicas.", float64(capacity))

	// Per-kind serving counters and latency: each query family runs its own
	// rounds on the shared mesh, so the split is what localizes a regression
	// to one structure instead of "the server got slower".
	for _, ks := range agg.Kinds {
		pw.Counter("meshserve_kind_served_total", "Answered lookups by query kind.", float64(ks.Served), "kind", ks.Kind)
		pw.Counter("meshserve_kind_degraded_total", "Oracle-degraded answers by query kind.", float64(ks.Degraded), "kind", ks.Kind)
		pw.Counter("meshserve_kind_rounds_total", "Serving rounds by query kind.", float64(ks.Rounds), "kind", ks.Kind)
		pw.Counter("meshserve_kind_sim_steps_total", "Simulated mesh steps by query kind.", float64(ks.SimSteps), "kind", ks.Kind)
	}
	var byKind [serve.NumKinds]obs.HistSnapshot
	var mAll, mMesh, mDeg obs.HistSnapshot
	for i := range f.reps {
		inst := f.instance(i)
		if inst == nil {
			continue
		}
		for _, k := range f.ss.Kinds() {
			byKind[k] = byKind[k].Merge(inst.LatencyByKind(k))
		}
		mAll = mAll.Merge(inst.LatencySnapshot())
		im, id := inst.LatencyByOutcome()
		mMesh = mMesh.Merge(im)
		mDeg = mDeg.Merge(id)
	}
	for _, k := range f.ss.Kinds() {
		pw.Histogram("meshserve_kind_request_duration_seconds", "Answered-lookup latency by query kind, merged across live replicas.", byKind[k], "kind", k.String())
	}
	// End-to-end serving latency: combined for continuity, split by outcome
	// so the oracle fast path cannot pollute the mesh-served p99.
	pw.Histogram("meshserve_request_duration_seconds", "Per-replica serving latency, merged across live replicas.", mAll, "outcome", "all")
	pw.Histogram("meshserve_request_duration_seconds", "Per-replica serving latency, merged across live replicas.", mMesh, "outcome", "mesh")
	pw.Histogram("meshserve_request_duration_seconds", "Per-replica serving latency, merged across live replicas.", mDeg, "outcome", "degraded")
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(v)
}
