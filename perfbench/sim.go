package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dict"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/mesh"
	"repro/internal/pointloc"
	"repro/internal/workload"
)

// simSide is the mesh side of the sim-paper kernels: the shapes of the
// repository's bench_test.go (E1, E2, E3, E4, E10, E15), 4096 processors.
const simSide = 64

// kernelRun is one kernel execution inside a pass.
type kernelRun struct {
	steps   int64
	prof    mesh.Profile
	queries int
	check   func() error
}

// simKernel builds a fresh mesh and query set and runs one kernel. span
// wraps the core call; it is the identity in untraced runs. The name
// labels the kernel's core span, "core.<name>".
type simKernel struct {
	name string
	run  func(rng *rand.Rand, span func(func())) kernelRun
}

// simPaper is the prepared sim-paper workload: every structure, splitter and
// H-DAG plan is built once in setup; a pass draws fresh queries and meshes.
type simPaper struct {
	kernels []simKernel
}

// buildSimPaper is the sim-paper set-up: structure and plan construction.
// plan wraps each core.PlanHDag call (the "core.plan_ms" span). The point
// set and key set use bench_test.go's fixed seeds, so that the step totals
// stay comparable with steps.json; only the queries come from the
// workload seed.
func buildSimPaper(plan func(func())) (*simPaper, error) {
	sp := &simPaper{}
	var err error
	planHDag := func(d *graph.HDag, side int) (p *core.HDagPlan) {
		plan(func() { p, err = core.PlanHDag(d, side) })
		return p
	}

	// E1: Constrained-Multisearch on a balanced binary tree (Lemma 3).
	h := 0
	for (1<<(h+2))-1 <= simSide*simSide {
		h++
	}
	t1 := graph.NewBalancedTree(2, h, true)
	s1 := graph.InstallTreeSplitter(t1, (h+1)/2, graph.Primary)
	sp.kernels = append(sp.kernels, simKernel{"constrained", func(rng *rand.Rand, span func(func())) kernelRun {
		m := mesh.New(simSide)
		qs := workload.KeySearchQueries(m.N(), int64(t1.SubtreeSize(0)), t1.Root(), 2, rng)
		in := core.NewInstance(m, t1.Graph, qs, workload.KeySearchSuccessor)
		in.Prime(m.Root())
		in.GlobalStep(m.Root())
		m.ResetSteps()
		span(func() { core.ConstrainedMultisearch(m.Root(), in, graph.Primary, s1.MaxPart, core.Log2N(m.Root())) })
		return finish(m, in, qs, t1.Graph, workload.KeySearchSuccessor, true)
	}})

	// E2: hierarchical-DAG multisearch (Theorem 2).
	d2 := graph.CompleteTreeHDag(2, 11)
	p2 := planHDag(d2, simSide)
	if err != nil {
		return nil, fmt.Errorf("plan E2: %w", err)
	}
	sp.kernels = append(sp.kernels, simKernel{"hdag", func(rng *rand.Rand, span func(func())) kernelRun {
		m := mesh.New(simSide)
		qs := workload.KeySearchQueries(m.N(), 1<<11, d2.Root(), 2, rng)
		in := core.NewInstance(m, d2.Graph, qs, workload.KeySearchSuccessor)
		m.ResetSteps()
		span(func() { core.MultisearchHDag(m.Root(), in, p2) })
		return finish(m, in, qs, d2.Graph, workload.KeySearchSuccessor, false)
	}})

	// E3: α-partitionable multisearch on cycles (Theorem 5).
	g3 := workload.CycleGraph(simSide, simSide)
	r3 := 8 * core.Log2N(mesh.New(simSide).Root())
	sp.kernels = append(sp.kernels, simKernel{"alpha", func(rng *rand.Rand, span func(func())) kernelRun {
		m := mesh.New(simSide)
		qs := workload.WalkQueries(m.N(), r3, g3.N(), rng)
		in := core.NewInstance(m, g3, qs, workload.WalkSuccessor)
		span(func() { core.MultisearchAlpha(m.Root(), in, simSide, 0) })
		return finish(m, in, qs, g3, workload.WalkSuccessor, false)
	}})

	// E4: α-β-partitionable multisearch with bouncing queries (Theorem 7).
	h4 := 11
	t4 := graph.NewBalancedTree(2, h4, false)
	s41 := graph.InstallTreeSplitter(t4, h4/3, graph.Primary)
	s42 := graph.InstallTreeSplitter(t4, 2*h4/3, graph.Secondary)
	bounce := workload.BounceSuccessor(2)
	sp.kernels = append(sp.kernels, simKernel{"alphabeta", func(rng *rand.Rand, span func(func())) kernelRun {
		m := mesh.New(simSide)
		qs := workload.BounceQueries(m.N(), 4, int64(t4.SubtreeSize(0)), t4.Root(), rng)
		in := core.NewInstance(m, t4.Graph, qs, bounce)
		span(func() { core.MultisearchAlphaBeta(m.Root(), in, s41.MaxPart, s42.MaxPart, 0) })
		return finish(m, in, qs, t4.Graph, bounce, false)
	}})

	// E10: planar point location over the Kirkpatrick hierarchy.
	rng := rand.New(rand.NewSource(10))
	pts := make([]geom.Point2, 0, 500)
	seen := map[geom.Point2]bool{}
	for len(pts) < 500 {
		p := geom.Point2{X: rng.Int63n(1 << 20), Y: rng.Int63n(1 << 20)}
		if !seen[p] {
			seen[p] = true
			pts = append(pts, p)
		}
	}
	h10, err := pointloc.Build(pts)
	if err != nil {
		return nil, fmt.Errorf("build E10: %w", err)
	}
	side10 := fitSide(h10.Dag.N())
	p10 := planHDag(h10.Dag, side10)
	if err != nil {
		return nil, fmt.Errorf("plan E10: %w", err)
	}
	sp.kernels = append(sp.kernels, simKernel{"pointloc", func(rng *rand.Rand, span func(func())) kernelRun {
		m := mesh.New(side10)
		queries := make([]geom.Point2, side10*side10/2)
		for i := range queries {
			queries[i] = geom.Point2{X: rng.Int63n(1 << 20), Y: rng.Int63n(1 << 20)}
		}
		qs := h10.NewQueries(queries)
		in := core.NewInstance(m, h10.Dag.Graph, qs, h10.Successor())
		span(func() { core.MultisearchHDag(m.Root(), in, p10) })
		return finish(m, in, qs, h10.Dag.Graph, h10.Successor(), false)
	}})

	// E15: (2,3)-tree dictionary membership.
	rng = rand.New(rand.NewSource(15))
	seenK := map[int64]bool{}
	keys := make([]int64, 0, 2000)
	for len(keys) < 2000 {
		k := rng.Int63n(1 << 40)
		if !seenK[k] {
			seenK[k] = true
			keys = append(keys, k)
		}
	}
	bt := dict.New(keys, 2, 3)
	maxPart := bt.InstallSplitter()
	side15 := fitSide(bt.G.N())
	sp.kernels = append(sp.kernels, simKernel{"dict", func(rng *rand.Rand, span func(func())) kernelRun {
		m := mesh.New(side15)
		needles := make([]int64, side15*side15/2)
		for i := range needles {
			needles[i] = keys[rng.Intn(len(keys))]
		}
		qs := bt.NewQueries(needles)
		in := core.NewInstance(m, bt.G, qs, dict.Successor)
		span(func() { core.MultisearchAlpha(m.Root(), in, maxPart, 0) })
		return finish(m, in, qs, bt.G, dict.Successor, false)
	}})
	return sp, nil
}

// fitSide is the smallest power-of-two side (at least 4) whose mesh holds n
// vertices, as in bench_test.go.
func fitSide(n int) int {
	side := 4
	for side*side < n {
		side *= 2
	}
	return side
}

// finish collects a kernel's step total, profile and answers; the oracle
// comparison runs later, outside the timed pass. A partial kernel
// (Constrained-Multisearch stops each query at its part's boundary) is
// checked as a prefix: each query must match the host descent cut at the
// number of steps it took.
func finish(m *mesh.Mesh, in *core.Instance, qs []core.Query, g *graph.Graph, f core.Successor, partial bool) kernelRun {
	return kernelRun{
		steps:   m.Steps(),
		prof:    m.Profile(),
		queries: len(qs),
		check: func() error {
			got := in.ResultQueries()
			if !partial {
				return core.SameOutcome(core.Oracle(g, qs, f, 0), got)
			}
			for i, q := range got {
				want := core.Oracle(g, qs[i:i+1], f, int(q.Steps))[0]
				want.ID = q.ID
				if want.Cur != q.Cur || want.Steps != q.Steps || want.State != q.State || want.Done != q.Done {
					return fmt.Errorf("core: query %d differs from its host descent:\n  %+v\n  %+v", i, want, q)
				}
			}
			return nil
		},
	}
}

// simBench runs sim-paper passes: every kernel once per pass, on fresh
// meshes and fresh queries drawn from the workload seed.
type simBench struct {
	seed  int64
	sp    *simPaper
	rng   *rand.Rand
	plans []float64 // core.PlanHDag time per set-up, ns
	wrong []string
}

func (b *simBench) setup() (time.Duration, error) {
	var plan time.Duration
	t0 := time.Now()
	sp, err := buildSimPaper(func(f func()) {
		p0 := time.Now()
		f()
		plan += time.Since(p0)
	})
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	b.sp, b.rng = sp, rand.New(rand.NewSource(b.seed))
	b.plans = append(b.plans, float64(plan))
	return d, nil
}

func (b *simBench) close() error { return nil }

// measure runs passes until d has elapsed (at least one). Each pass is
// timed as a whole; its answers and step totals are checked after it,
// outside its time, and that check is the lag before the next pass.
func (b *simBench) measure(d time.Duration, tr *tracer, _ int) (*window, error) {
	var passes, lags []float64
	var rt rtDelta
	var queries int
	var prof mesh.Profile
	rd := newRTReader()
	hp := startHeapPeak()
	start := time.Now()
	due := start
	for len(passes) == 0 || time.Since(start) < d {
		runs := make([]kernelRun, len(b.sp.kernels))
		r0 := rd.read()
		t0 := time.Now()
		lags = append(lags, float64(t0.Sub(due)))
		var rec *spanRec
		if tr != nil {
			rec = tr.begin("loadgen.pass", t0)
		}
		for i, k := range b.sp.kernels {
			span := func(f func()) { f() }
			if rec != nil {
				span = func(f func()) {
					s := time.Now()
					f()
					rec.add("core."+k.name, 0, s, time.Now())
				}
			}
			runs[i] = k.run(b.rng, span)
		}
		t1 := time.Now()
		rt = rt.add(r0.to(rd.read()))
		if rec != nil {
			rec.end(t1)
		}
		passes = append(passes, float64(t1.Sub(t0)))
		queries, prof = 0, mesh.Profile{}
		for i, r := range runs {
			queries += r.queries
			prof.Add(r.prof)
			if err := r.check(); err != nil {
				b.wrong = append(b.wrong, fmt.Sprintf("%s: %v", b.sp.kernels[i].name, err))
			}
			b.checkSteps("sim."+b.sp.kernels[i].name, r.steps)
		}
		for c := mesh.OpClass(0); c < mesh.NumOpClasses; c++ {
			b.checkSteps("sim.class."+c.String(), prof.Ops[c].Steps)
		}
		due = time.Now()
	}
	secs := time.Since(start).Seconds()
	peak := hp.Stop()
	sort.Float64s(passes)
	sort.Float64s(lags)
	w := &window{
		p50:       quantile(passes, 0.5),
		p90:       quantile(passes, 0.90),
		p99:       quantile(passes, 0.99),
		samples:   len(passes),
		ops:       float64(len(passes)),
		attempted: int64(len(passes) * queries),
		rt:        rt,
		peakHeap:  peak,
		lagP99:    quantile(lags, 0.99),
		offered:   float64(len(passes)*queries) / secs,
		layer:     map[string]float64{},
	}
	w.qps = float64(queries) / (w.p50 / 1e9)
	if tr != nil {
		for _, k := range b.sp.kernels {
			w.layer["core."+k.name+"_ms"] = median(tr.durations("core."+k.name)) / 1e6
		}
		w.layer["core.plan_ms"] = median(b.plans) / 1e6
		for c := mesh.OpClass(0); c < mesh.NumOpClasses; c++ {
			w.layer["mesh.steps."+c.String()] = float64(prof.Ops[c].Steps)
		}
	}
	return w, nil
}

// checkSteps compares one step total against steps.json.
func (b *simBench) checkSteps(key string, got int64) {
	if msg := stepMismatch(key, got); msg != "" {
		b.wrong = append(b.wrong, msg)
	}
}

func (b *simBench) verify() []string { return b.wrong }
