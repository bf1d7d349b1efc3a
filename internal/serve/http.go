package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"
)

// This file is the /search wire contract: the one copy that the HTTP
// handler (fleet.Handler) and the HTTP client (loadgen.HTTPTarget) share.

// StatusClientClosedRequest is nginx's non-standard 499 "client closed
// request": the client disconnected before the round answered. There is no
// standard code for it, and 500 would charge a client disconnect to the
// server's error accounting.
const StatusClientClosedRequest = 499

// DeadlineBudgetHeader carries the client's remaining deadline budget as a
// Go duration string (e.g. "250ms"): loadgen.HTTPTarget sets it from its
// per-query context, the /search handler parses it into a server-side
// deadline, and every budget rung below — admission, linger, retry ladder,
// fleet failover — then sees the same budget the client is holding
// (DESIGN.md §3.11). Without it a remote server cannot shed doomed work:
// the client's deadline is invisible across the wire.
const DeadlineBudgetHeader = "X-Deadline-Budget"

// WithDeadlineBudget applies an incoming deadline-budget header to ctx.
// Absent or malformed headers leave ctx unchanged (the returned cancel is
// then a no-op but always non-nil, so callers can defer it unconditionally).
func WithDeadlineBudget(ctx context.Context, r *http.Request) (context.Context, context.CancelFunc) {
	if v := r.Header.Get(DeadlineBudgetHeader); v != "" {
		if d, err := time.ParseDuration(v); err == nil && d > 0 {
			return context.WithTimeout(ctx, d)
		}
	}
	return ctx, func() {}
}

// RetryAfterSeconds renders a retry hint as a Retry-After header value,
// clamped up to the header's one-second resolution: at least one second,
// enough for several rounds to drain the admission queue or for a canary to
// close the circuit.
func RetryAfterSeconds(hint time.Duration) string {
	secs := int64((hint + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// SearchParams names each kind's /search query parameters, in Args order:
//
//	membership  ?key=K
//	pointloc    ?x=X&y=Y
//	interval    ?lo=L&hi=H
//	linepoly    ?x=X&y=Y
//	tangent     ?dx=DX&dy=DY&dz=DZ
//
// ?kind= selects the family (membership when absent, so pre-kind clients
// keep working).
var SearchParams = [NumKinds][]string{
	KindMembership: {"key"},
	KindPointLoc:   {"x", "y"},
	KindInterval:   {"lo", "hi"},
	KindLinePoly:   {"x", "y"},
	KindTangent:    {"dx", "dy", "dz"},
}

// ParseSearchArgs extracts one kind's typed arguments from a /search query
// string.
func ParseSearchArgs(kind Kind, q url.Values) (Args, error) {
	var a Args
	for i, name := range SearchParams[kind] {
		v, err := strconv.ParseInt(q.Get(name), 10, 64)
		if err != nil {
			return a, fmt.Errorf("serve: /search kind=%s needs an integer ?%s=", kind, name)
		}
		a[i] = v
	}
	return a, nil
}
