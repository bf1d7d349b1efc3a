package main

import (
	"math"
	"testing"
)

// FuzzParseOutage feeds arbitrary -outage specs and fleet sizes through
// parseOutage: it never panics, and every plan it accepts is one the
// latency injector can run — replica indices in [0, replicas), onsets ≥ 0,
// finite slowdown factors > 1, positive creep ramps and stall durations.
func FuzzParseOutage(f *testing.F) {
	for _, seed := range []string{
		"slow:r1:10x@2s", "stall:r2@5s", "stall:r0:40ms@1s", "creep:r1:4x@1s",
		"creep:r1:4x:500ms@0s", "slow:r1:10x@2s,stall:r2@5s",
		"slow:r0:NaNx@1s", "slow:r0:Infx@1s", "creep:r0:+infx:1s@1s", "slow:r0:1x@1s",
		"slow:r9:2x@1s", "bogus:r0@1s", "slow:r0:2x", "", ",", "stall:r0:-1s@1s",
		"creep:r0:2x:0s@1s", "slow:r-1:2x@-1s", "stall:r0:1ns@9223372036854775807ns",
	} {
		f.Add(seed, uint8(3))
	}
	f.Fuzz(func(t *testing.T, spec string, replicas uint8) {
		n := int(replicas)
		plan, err := parseOutage(spec, n, 1)
		if err != nil {
			return
		}
		for idx, cfgs := range plan {
			if idx < 0 || idx >= n {
				t.Fatalf("%q: accepted replica r%d of %d", spec, idx, n)
			}
			for _, lc := range cfgs {
				switch {
				case lc.After < 0, lc.Ramp < 0, lc.StallFor < 0, lc.StallEvery < 0:
				case lc.Factor != 0 && (!(lc.Factor > 1) || math.IsInf(lc.Factor, 0)):
				case lc.Ramp > 0 && lc.Factor == 0:
				case lc.Factor == 0 && lc.StallEvery == 0:
				default:
					continue
				}
				t.Fatalf("%q (replicas %d): accepted an entry the injector cannot run on r%d: %+v", spec, n, idx, lc)
			}
		}
	})
}
