package main

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/faults"
	"repro/internal/mesh"
)

// Gray-failure outage schedules (-outage, DESIGN.md §3.11): per-replica
// latency injection that a serving fleet cannot see through its breakers —
// the injected replica stays correct and healthy-looking, just slow.
//
// Grammar (comma-separated entries, one or more per replica):
//
//	slow:rI:Fx@T        replica I runs F× slower from T after its first round
//	stall:rI@T          replica I stalls intermittently (50ms every ~250ms)
//	stall:rI:DUR@T      … with DUR-long stalls
//	creep:rI:Fx@T       replica I degrades linearly to F× over 2s from T
//	creep:rI:Fx:RAMP@T  … over RAMP
//
// Example: -outage "slow:r1:10x@2s,stall:r2@5s"

// outagePlan maps replica index → latency-injector configs to stack on it.
type outagePlan map[int][]faults.LatencyConfig

// parseOutage parses the -outage flag against the configured fleet size.
// Seed feeds the deterministic stall jitter so reruns degrade identically.
func parseOutage(spec string, replicas int, seed int64) (outagePlan, error) {
	plan := outagePlan{}
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		head, afterSpec, ok := strings.Cut(entry, "@")
		if !ok {
			return nil, fmt.Errorf("-outage %q: missing @onset (e.g. %q)", entry, entry+"@2s")
		}
		after, err := time.ParseDuration(afterSpec)
		if err != nil || after < 0 {
			return nil, fmt.Errorf("-outage %q: bad onset %q", entry, afterSpec)
		}
		parts := strings.Split(head, ":")
		if len(parts) < 2 {
			return nil, fmt.Errorf("-outage %q: want verb:rI[:...]@onset", entry)
		}
		verb := parts[0]
		idx, err := parseReplicaRef(parts[1], replicas)
		if err != nil {
			return nil, fmt.Errorf("-outage %q: %w", entry, err)
		}
		lc := faults.LatencyConfig{Seed: seed + int64(idx)*7_368_787, After: after}
		switch verb {
		case "slow":
			if len(parts) != 3 {
				return nil, fmt.Errorf("-outage %q: want slow:rI:Fx@onset", entry)
			}
			if lc.Factor, err = parseFactor(parts[2]); err != nil {
				return nil, fmt.Errorf("-outage %q: %w", entry, err)
			}
		case "creep":
			if len(parts) != 3 && len(parts) != 4 {
				return nil, fmt.Errorf("-outage %q: want creep:rI:Fx[:ramp]@onset", entry)
			}
			if lc.Factor, err = parseFactor(parts[2]); err != nil {
				return nil, fmt.Errorf("-outage %q: %w", entry, err)
			}
			lc.Ramp = 2 * time.Second
			if len(parts) == 4 {
				if lc.Ramp, err = time.ParseDuration(parts[3]); err != nil || lc.Ramp <= 0 {
					return nil, fmt.Errorf("-outage %q: bad ramp %q", entry, parts[3])
				}
			}
		case "stall":
			if len(parts) > 3 {
				return nil, fmt.Errorf("-outage %q: want stall:rI[:dur]@onset", entry)
			}
			lc.StallEvery = 250 * time.Millisecond
			if len(parts) == 3 {
				if lc.StallFor, err = time.ParseDuration(parts[2]); err != nil || lc.StallFor <= 0 {
					return nil, fmt.Errorf("-outage %q: bad stall duration %q", entry, parts[2])
				}
			}
		default:
			return nil, fmt.Errorf("-outage %q: unknown verb %q (want slow, stall, or creep)", entry, verb)
		}
		plan[idx] = append(plan[idx], lc)
	}
	if len(plan) == 0 {
		return nil, fmt.Errorf("-outage %q: no entries", spec)
	}
	return plan, nil
}

func parseReplicaRef(s string, replicas int) (int, error) {
	if !strings.HasPrefix(s, "r") {
		return 0, fmt.Errorf("bad replica ref %q (want r0..r%d)", s, replicas-1)
	}
	idx, err := strconv.Atoi(s[1:])
	if err != nil || idx < 0 || idx >= replicas {
		return 0, fmt.Errorf("bad replica ref %q (want r0..r%d)", s, replicas-1)
	}
	return idx, nil
}

func parseFactor(s string) (float64, error) {
	f, err := strconv.ParseFloat(strings.TrimSuffix(s, "x"), 64)
	// NaN fails every comparison, so !(f > 1) rejects it with the factors
	// ≤ 1; an infinite factor would overflow the injected delay.
	if err != nil || !(f > 1) || math.IsInf(f, 1) {
		return 0, fmt.Errorf("bad slowdown factor %q (want e.g. 10x, > 1)", s)
	}
	return f, nil
}

// makeInjector composes the plan over an inner per-replica injector factory
// (the -chaos one, or nil). Each call builds FRESH Latency injectors: an
// injector carries schedule state, so two fleets (the -outage-compare
// baseline and resilient runs) must never share one.
func (p outagePlan) makeInjector(inner func(i int) mesh.Injector) func(i int) mesh.Injector {
	return func(i int) mesh.Injector {
		var in mesh.Injector
		if inner != nil {
			in = inner(i)
		}
		for _, lc := range p[i] {
			in = faults.NewLatency(lc, in)
		}
		return in
	}
}

// String renders the plan for banners.
func (p outagePlan) String() string {
	n := 0
	for _, cfgs := range p {
		n += len(cfgs)
	}
	return fmt.Sprintf("%d latency fault(s) across %d replica(s)", n, len(p))
}
