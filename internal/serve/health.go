package serve

// Health is the server's admission-facing state, driven by the circuit
// breaker and by Shutdown (DESIGN.md §3.6, §3.11):
//
//	Healthy   — circuit closed; batches run on the mesh (with the retry
//	            ladder behind them).
//	Degraded  — circuit open; batches fail fast with ErrCircuitOpen while
//	            the fleet's prober runs audited canary rounds (Probe),
//	            closing the circuit on the first success.
//	LameDuck  — Shutdown has begun; admission is closed and /healthz tells
//	            load balancers to route elsewhere while the drain finishes.
//	Ejected   — the fleet's latency-outlier verdict (DESIGN.md §3.11): the
//	            replica answers correctly and its own breaker is closed —
//	            gray failure — but its EWMA latency score is an outlier
//	            multiple of the fleet median, so routing skips it until
//	            fleet-level canary probes measure it back within bounds.
//	            An instance never reports Ejected about itself: the state
//	            is relative to the fleet's other replicas, so only the
//	            fleet view (fleet.ReplicaView, fleet stats) carries it.
type Health int32

const (
	Healthy Health = iota
	Degraded
	LameDuck
	Ejected
)

func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case LameDuck:
		return "lame-duck"
	case Ejected:
		return "ejected"
	default:
		return "unknown"
	}
}

// breaker is the sliding-window failure-rate circuit breaker. It records
// one outcome per mesh-path batch — true when the first attempt faulted,
// whatever happened afterwards — over a fixed window of recent rounds.
// Owned exclusively by the executor goroutine; no locking (the open flag
// the rest of the server reads is mirrored into Instance.circuitOpen).
type breaker struct {
	window    []bool
	idx       int
	filled    int
	fails     int
	threshold float64
}

func newBreaker(size int, threshold float64) *breaker {
	return &breaker{window: make([]bool, size), threshold: threshold}
}

// record pushes one round outcome and reports whether the windowed failure
// rate now calls for opening the circuit: the window must be full (a cold
// server never opens on its first round) and the rate at or past the
// threshold.
func (b *breaker) record(fail bool) (open bool) {
	if b.filled == len(b.window) {
		if b.window[b.idx] {
			b.fails--
		}
	} else {
		b.filled++
	}
	b.window[b.idx] = fail
	if fail {
		b.fails++
	}
	b.idx = (b.idx + 1) % len(b.window)
	return b.filled == len(b.window) &&
		float64(b.fails) >= b.threshold*float64(len(b.window))
}

// reset clears the window — called on every circuit transition so the next
// decision is based only on rounds observed in the new state.
func (b *breaker) reset() {
	for i := range b.window {
		b.window[i] = false
	}
	b.idx, b.filled, b.fails = 0, 0, 0
}
