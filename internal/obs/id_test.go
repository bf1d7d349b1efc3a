package obs

import (
	"strings"
	"testing"
)

// TestTraceparentRoundTrip: every minted ID survives header encode/decode.
func TestTraceparentRoundTrip(t *testing.T) {
	for i := 0; i < 100; i++ {
		id := NewTraceID()
		h := id.Traceparent()
		if len(h) != 55 || !strings.HasPrefix(h, "00-") || !strings.HasSuffix(h, "-01") {
			t.Fatalf("bad traceparent shape: %q", h)
		}
		got, err := ParseTraceparent(h)
		if err != nil {
			t.Fatalf("ParseTraceparent(%q): %v", h, err)
		}
		if got != id {
			t.Fatalf("round trip: %s → %q → %s", id, h, got)
		}
	}
}

// TestNewTraceIDUnique: the counter derivation must never repeat or zero.
func TestNewTraceIDUnique(t *testing.T) {
	seen := make(map[TraceID]bool, 1000)
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if id.IsZero() {
			t.Fatal("minted the reserved all-zero ID")
		}
		if seen[id] {
			t.Fatalf("duplicate ID %s after %d mints", id, i)
		}
		seen[id] = true
	}
}

// TestParseTraceparentMalformed: per W3C, malformed headers are rejected (the
// caller then mints a fresh ID rather than failing the request).
func TestParseTraceparentMalformed(t *testing.T) {
	valid := NewTraceID().Traceparent()
	cases := map[string]string{
		"empty":                            "",
		"short":                            "00-abc",
		"no dashes":                        strings.ReplaceAll(valid, "-", "_"),
		"version ff":                       "ff" + valid[2:],
		"zero trace id":                    "00-00000000000000000000000000000000-0000000000000001-01",
		"uppercase hex":                    "00-" + strings.ToUpper(valid[3:35]) + valid[35:],
		"non-hex trace id":                 "00-zz" + valid[5:],
		"non-hex parent id":                valid[:36] + "zzzzzzzzzzzzzzzz" + valid[52:],
		"non-hex flags":                    valid[:53] + "zz",
		"non-hex version":                  "0x" + valid[2:],
		"version 00 longer than 55 bytes":  valid + "-extrafield",
		"future version, no dash after 55": "42" + valid[2:] + "x-extrafield",
		"zero parent id":                   valid[:36] + "0000000000000000" + valid[52:],
	}
	for name, h := range cases {
		if _, err := ParseTraceparent(h); err == nil {
			t.Errorf("%s: ParseTraceparent(%q) accepted", name, h)
		}
	}
	// Unknown-but-legal versions are accepted if the layout matches.
	if _, err := ParseTraceparent("42" + valid[2:]); err != nil {
		t.Errorf("version 42 rejected: %v", err)
	}
	// Future versions may append dash-led fields; those headers parse too.
	if _, err := ParseTraceparent("42" + valid[2:] + "-extrafield"); err != nil {
		t.Errorf("extended future-version header rejected: %v", err)
	}
}

// TestTraceparentParentIDsDiffer: each header render gets a fresh parent-id
// (the hop identifier), while the trace-id part stays fixed.
func TestTraceparentParentIDsDiffer(t *testing.T) {
	id := NewTraceID()
	h1, h2 := id.Traceparent(), id.Traceparent()
	if h1[:36] != h2[:36] {
		t.Errorf("trace-id part changed between renders: %q vs %q", h1, h2)
	}
	if h1[36:52] == h2[36:52] {
		t.Errorf("parent-id did not rotate: %q vs %q", h1, h2)
	}
}

// FuzzParseTraceparent: the parser never panics on arbitrary input, and
// every header it accepts names an ID that round-trips through the header
// this process renders for it.
func FuzzParseTraceparent(f *testing.F) {
	valid := NewTraceID().Traceparent()
	for _, seed := range []string{
		"", valid, "ff" + valid[2:], "42" + valid[2:] + "-x", valid + "-x",
		"00-00000000000000000000000000000000-0000000000000001-01",
		valid[:36] + "0000000000000000" + valid[52:],
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, h string) {
		id, err := ParseTraceparent(h)
		if err != nil {
			return
		}
		if id.IsZero() {
			t.Fatalf("accepted %q with the all-zero trace ID", h)
		}
		back, err := ParseTraceparent(id.Traceparent())
		if err != nil || back != id {
			t.Fatalf("accepted %q as %s, but its rendering %q parses as %s (%v)", h, id, id.Traceparent(), back, err)
		}
	})
}
