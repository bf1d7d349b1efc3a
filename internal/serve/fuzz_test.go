package serve

import (
	"context"
	"net/http"
	"net/url"
	"strconv"
	"testing"
	"time"
)

// FuzzSearchArgs feeds arbitrary raw /search query strings through the
// handler's parsers: they never panic, and accepted arguments re-render to
// a query that parses back to the same kind and arguments.
func FuzzSearchArgs(f *testing.F) {
	for _, seed := range []string{
		"", "key=7", "kind=pointloc&x=3&y=-4", "kind=interval&lo=2&hi=9",
		"kind=linepoly&x=1&y=2", "kind=tangent&dx=1&dy=0&dz=-5",
		"kind=bogus&key=1", "key=zebra", "key=9223372036854775808", "kind=%zz",
		"kind=TANGENT&dx=+1&dy=-0&dz=007", "key=1&key=2", ";key=1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		q, err := url.ParseQuery(raw)
		if err != nil {
			return
		}
		kind, err := ParseKind(q.Get("kind"))
		if err != nil {
			return
		}
		args, err := ParseSearchArgs(kind, q)
		if err != nil {
			return
		}
		again := url.Values{"kind": {kind.String()}}
		for i, name := range SearchParams[kind] {
			again.Set(name, strconv.FormatInt(args[i], 10))
		}
		kind2, err := ParseKind(again.Get("kind"))
		if err != nil || kind2 != kind {
			t.Fatalf("%q: kind %s re-parsed as %v (%v)", raw, kind, kind2, err)
		}
		args2, err := ParseSearchArgs(kind2, again)
		if err != nil || args2 != args {
			t.Fatalf("%q: args %v re-rendered as %q parse back as %v (%v)", raw, args, again.Encode(), args2, err)
		}
	})
}

// FuzzDeadlineBudget feeds arbitrary X-Deadline-Budget values through
// WithDeadlineBudget: only a positive duration that time.ParseDuration
// accepts adds a deadline, and the returned cancel is never nil.
func FuzzDeadlineBudget(f *testing.F) {
	for _, seed := range []string{
		"", "250ms", "1h", "-5s", "0", "0s", "1ns", "garbage", "9223372036854775807ns",
		"2562047h47m16.854775807s", "1e3ms", " 5s",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, v string) {
		r := &http.Request{Header: http.Header{}}
		r.Header.Set(DeadlineBudgetHeader, v)
		before := time.Now()
		ctx, cancel := WithDeadlineBudget(context.Background(), r)
		if cancel == nil {
			t.Fatalf("%q: nil cancel", v)
		}
		defer cancel()
		dl, has := ctx.Deadline()
		d, perr := time.ParseDuration(r.Header.Get(DeadlineBudgetHeader))
		want := r.Header.Get(DeadlineBudgetHeader) != "" && perr == nil && d > 0
		if has != want {
			t.Fatalf("%q: deadline set = %v, want %v", v, has, want)
		}
		if has && dl.Before(before) {
			t.Fatalf("%q: positive budget %v produced a past deadline %v", v, d, dl)
		}
	})
}
