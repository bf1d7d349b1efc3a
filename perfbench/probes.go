package main

import (
	"fmt"
	"math/rand"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mesh"
	"repro/internal/serve"
)

// Layer probes time calls into one layer's public functions from outside,
// on fixed inputs, in the traced run of every workload. Their seed is
// fixed so that step totals can be compared against steps.json.
const probeSeed = 1

// timeReps calls f until it has run at least minReps times and for at
// least minTime, preparing each call with prep (untimed). It returns the
// median call time in nanoseconds and heap allocations per call.
func timeReps(minReps int, minTime time.Duration, prep, f func()) (ns, allocs float64) {
	var times []float64
	var total time.Duration
	var allocSum float64
	rd := newRTReader()
	for len(times) < minReps || total < minTime {
		prep()
		r0 := rd.read()
		t0 := time.Now()
		f()
		d := time.Since(t0)
		allocSum += r0.to(rd.read()).allocs
		times = append(times, float64(d))
		total += d
	}
	return median(times), allocSum / float64(len(times))
}

// primRecord describes one record type for the mesh primitive probe.
type primRecord[T any] struct {
	make func(key int64) T
	key  func(T) int64
}

// probePrims times Sort, Scan, RAR, RAW and Route on a side×side mesh
// holding one record of type T per processor, keyed by a random
// permutation. Results are keyed by op name.
func probePrims[T any](side int, rec primRecord[T]) map[string][2]float64 {
	m := mesh.New(side)
	v := m.Root()
	n := m.N()
	rng := rand.New(rand.NewSource(probeSeed))
	perm := rng.Perm(n)
	data := make([]T, n)
	for i := range data {
		data[i] = rec.make(int64(perm[i]))
	}
	r := mesh.NewReg[T](m)
	out := make([]T, n)
	load := func() { mesh.Load(v, r, data) }
	less := func(a, b T) bool { return rec.key(a) < rec.key(b) }
	minKey := func(a, b T) T {
		if rec.key(b) < rec.key(a) {
			return b
		}
		return a
	}
	var zero T
	res := map[string][2]float64{}
	time1 := func(op string, f func()) {
		ns, allocs := timeReps(5, 60*time.Millisecond, load, f)
		res[op] = [2]float64{ns, allocs}
	}
	time1("sort", func() { mesh.Sort(v, r, less) })
	time1("scan", func() { mesh.Scan(v, r, minKey) })
	time1("rar", func() {
		mesh.RAR(v,
			func(i int) (int64, T, bool) { x := mesh.At(v, r, i); return rec.key(x), x, true },
			func(i int) (int64, bool) { return int64(perm[i]), true },
			func(i int, x T, found bool) { out[i] = x })
	})
	time1("raw", func() {
		mesh.RAW(v,
			func(i int) (int64, bool) { return int64(i), true },
			func(i int) (int64, T, bool) { x := mesh.At(v, r, i); return rec.key(x), x, true },
			minKey,
			func(i int, x T, any bool) { out[i] = x })
	})
	time1("route", func() {
		mesh.Route(v, r, zero, func(i int, x T) (int, bool) { return int(rec.key(x)), true })
	})
	return res
}

var primOps = []string{"sort", "scan", "rar", "raw", "route"}

// probeMesh times the mesh primitives with the record core moves (a
// graph.Vertex) and with an 8-byte record, at sides 16 and 64.
func probeMesh() map[string]float64 {
	fat := primRecord[graph.Vertex]{
		make: func(k int64) graph.Vertex { return graph.Vertex{ID: graph.VertexID(k), Level: -1} },
		key:  func(x graph.Vertex) int64 { return int64(x.ID) },
	}
	thin := primRecord[int64]{
		make: func(k int64) int64 { return k },
		key:  func(x int64) int64 { return x },
	}
	m := map[string]float64{}
	for _, side := range []int{16, 64} {
		f := probePrims(side, fat)
		t := probePrims(side, thin)
		for _, op := range primOps {
			m[fmt.Sprintf("mesh.%s_us.s%d", op, side)] = f[op][0] / 1e3
			m[fmt.Sprintf("mesh.%s_thin_us.s%d", op, side)] = t[op][0] / 1e3
			if side == 64 {
				m["mesh."+op+"_allocs"] = f[op][1]
				// Computed, not measured: the bytes of the record bank the
				// call permutes once. RAR and RAW sort a bank of 2n keyed
				// items.
				bank := float64(side*side) * float64(unsafe.Sizeof(graph.Vertex{}))
				if op == "rar" || op == "raw" {
					bank = 2 * float64(side*side) * float64(8+unsafe.Sizeof(graph.Vertex{}))
				}
				m["mesh."+op+"_mb"] = bank / 1e6
			}
		}
	}
	return m
}

// defaultKeys is the serve layer's default dictionary: n/4 odd keys.
func defaultKeys(side int) []int64 {
	keys := make([]int64, side*side/4)
	for i := range keys {
		keys[i] = int64(2*i + 1)
	}
	return keys
}

var allKinds = []serve.Kind{serve.KindMembership, serve.KindPointLoc, serve.KindInterval, serve.KindLinePoly, serve.KindTangent}

// probeRounds runs one serving round per kind on a fresh 16×16
// core.Instance: a full batch and a single request, checked against the
// host oracle. With timed set, it times reps of each; otherwise it runs
// each once for the step totals. Steps are keyed "round.<kind>".
func probeRounds(timed bool) (metrics map[string]float64, steps map[string]int64, wrong []string, err error) {
	ss, err := serve.BuildStructures(serveSide, defaultKeys(serveSide), 2, 3, allKinds)
	if err != nil {
		return nil, nil, nil, err
	}
	keys := len(ss.Membership().Keys)
	metrics, steps = map[string]float64{}, map[string]int64{}
	for _, kind := range allKinds {
		st := ss.Get(kind)
		m := mesh.New(serveSide)
		in := core.NewInstance(m, st.Graph(), nil, st.Successor())
		rng := rand.New(rand.NewSource(probeSeed))
		args := make([]serve.Args, m.N()/max(1, st.PerRequest()))
		for i := range args {
			args[i] = st.ArgsFor(rng.Int63n(int64(2 * keys)))
		}
		// A round is what the serve layer times: load the queries, search.
		var qs []core.Query
		round := func() {
			v := m.Root()
			in.ResetQueries(v, qs)
			st.Search(v, in)
		}
		prep := func(batch []serve.Args) func() {
			return func() {
				qs = st.MakeQueries(batch)
				m.ResetSteps()
			}
		}
		prep(args)()
		round()
		steps["round."+kind.String()] = m.Steps()
		got := in.ResultQueries()
		for i, a := range args {
			if have, want := st.Extract(got, i), serve.HostAnswer(st, a); have != want {
				wrong = append(wrong, fmt.Sprintf("%s round request %d answered %+v, host oracle %+v", kind, i, have, want))
				break
			}
		}
		if !timed {
			continue
		}
		ns, _ := timeReps(8, 50*time.Millisecond, prep(args), round)
		metrics["core.round_us."+kind.String()] = ns / 1e3
		ns, _ = timeReps(16, 30*time.Millisecond, prep(args[:1]), round)
		metrics["core.round1_us."+kind.String()] = ns / 1e3
		metrics["core.steps."+kind.String()] = float64(steps["round."+kind.String()])
	}
	return metrics, steps, wrong, nil
}

// probeBuilds times serve.BuildStructures one kind at a time at 16×16.
// Membership is always built, so the other modules' figures are the
// difference from a membership-only build.
func probeBuilds() (map[string]float64, error) {
	keys := defaultKeys(serveSide)
	build := func(kinds []serve.Kind) (float64, error) {
		var err error
		ns, _ := timeReps(5, 50*time.Millisecond, func() {}, func() {
			if _, e := serve.BuildStructures(serveSide, keys, 2, 3, kinds); e != nil {
				err = e
			}
		})
		return ns / 1e6, err
	}
	dict, err := build(nil)
	if err != nil {
		return nil, err
	}
	m := map[string]float64{"dict.build_ms": dict}
	for module, kinds := range map[string][]serve.Kind{
		"pointloc":   {serve.KindPointLoc},
		"interval":   {serve.KindInterval},
		"polyhedron": {serve.KindLinePoly, serve.KindTangent},
	} {
		ms, err := build(kinds)
		if err != nil {
			return nil, err
		}
		m[module+".build_ms"] = ms - dict
	}
	return m, nil
}
