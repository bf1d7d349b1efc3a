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

// Handler returns the fleet's HTTP surface — the same contract as one
// instance's (serve.Instance.Handler), aggregated:
//
//	GET /search?key=K — one lookup through the router and failover ladder;
//	                    the JSON answer carries the serving replica index
//	                    (-1 for a fleet-oracle answer). 429 only when every
//	                    routable replica rejected with overload, 503 after
//	                    Shutdown; the Retry-After on both is the *least-
//	                    loaded healthy* replica's estimate — the soonest the
//	                    fleet could accept work — not whichever instance
//	                    happened to reject.
//	GET /healthz      — 200 while at least one replica is healthy and not
//	                    latency-ejected; 503 only when none is (all
//	                    degraded/crashed/ejected) or the fleet is draining.
//	                    A single replica loss is the fleet working as
//	                    designed, not an incident. 504 on /search means the
//	                    X-Deadline-Budget ran out before any replica could
//	                    answer (§3.11).
//	GET /metrics      — fleet stats (routing, failover, crash/restart,
//	                    time-to-healthy), per-replica state, and the summed
//	                    per-instance serving counters under "serve" so
//	                    instance-shaped scrapers (loadgen.HTTPTarget) work
//	                    unchanged against a fleet.
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

// traceCtx mirrors the instance handler's traceparent adoption: the fleet
// trace takes the wire ID (minting one when absent/malformed) and the
// response echoes it so a loadgen client can correlate its samples with
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
		// the server-side deadline verdict — mirrors the instance handler.
		http.Error(w, err.Error(), http.StatusGatewayTimeout)
		return
	case r.Context().Err() == nil && errors.Is(err, context.DeadlineExceeded):
		// A deadline fired that the client's own context did not carry: the
		// X-Deadline-Budget header's server-side deadline ran out mid-flight.
		http.Error(w, err.Error(), http.StatusGatewayTimeout)
		return
	case r.Context().Err() != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)):
		// Same client-versus-server split as the instance handler: the
		// request's own context firing is a client outcome, 4xx class.
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
	if r.URL.Query().Get("format") == "prometheus" {
		f.promMetrics(w)
		return
	}
	st := f.Stats()
	doc := map[string]any{
		"fleet":     st,
		"serve":     st.Agg, // instance-shaped aggregate for shared scrapers
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
	writeJSON(w, doc)
}

// promMetrics renders the fleet's Prometheus text exposition: routing and
// failover counters, per-replica gauges, outcome-split dispatch latency, the
// bucket-exact merge of every live replica's serving histograms, and (with
// Config.Obs) the shared per-stage decomposition and SLO burn gauges.
func (f *Fleet) promMetrics(w http.ResponseWriter) {
	st := f.Stats()
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
	for _, rv := range f.views() {
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

	// Replica-level serving latency, merged bucket-exact across live
	// replicas (fixed boundaries sum losslessly), split by outcome.
	var mAll, mMesh, mDeg obs.HistSnapshot
	for i := range f.reps {
		inst := f.instance(i)
		if inst == nil {
			continue
		}
		mAll = mAll.Merge(inst.LatencySnapshot())
		im, id := inst.LatencyByOutcome()
		mMesh = mMesh.Merge(im)
		mDeg = mDeg.Merge(id)
	}
	pw.Histogram("meshserve_request_duration_seconds", "Per-replica serving latency, merged across live replicas.", mAll, "outcome", "all")
	pw.Histogram("meshserve_request_duration_seconds", "Per-replica serving latency, merged across live replicas.", mMesh, "outcome", "mesh")
	pw.Histogram("meshserve_request_duration_seconds", "Per-replica serving latency, merged across live replicas.", mDeg, "outcome", "degraded")

	if f.obs != nil {
		pw.WriteObserver("meshfleet", f.obs)
		pw.WriteLatencyBurn("meshfleet", f.obs, lat)
	}
	w.Header().Set("Content-Type", obs.ContentType)
	_, _ = w.Write(pw.Bytes())
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
