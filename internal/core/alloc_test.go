package core

// White-box allocation regression for the steady-state multistep hot path.
// It lives in package core (not core_test) to drive advanceRange directly:
// the loop every Algorithm 1/2/3 run spends its time in must run out of the
// mesh's scratch arena with (near-)zero allocations per multistep. The seed
// allocated the full RAR item bank plus sort.SliceStable reflection
// artifacts on every call.

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/mesh"
)

// cycleInstance builds an n-processor instance whose queries chase each
// other around a 2-vertex cycle forever: every advanceRange call advances
// every query, so each run exercises the full RAR record+request bank.
func cycleInstance(side int) *Instance {
	g := &graph.Graph{Directed: true}
	for i := 0; i < 2; i++ {
		var v graph.Vertex
		v.ID = graph.VertexID(i)
		v.Level = 0
		v.Part = graph.NoPart
		v.Part2 = graph.NoPart
		v.Deg = 1
		v.Adj[0] = graph.VertexID(1 - i)
		v.AdjPart[0] = graph.NoPart
		v.AdjPart2[0] = graph.NoPart
		v.ExtIdx = -1
		g.Verts = append(g.Verts, v)
	}
	m := mesh.New(side)
	qs := make([]Query, m.N())
	for i := range qs {
		qs[i].Cur = graph.VertexID(i % 2)
	}
	// The successor never finishes and Visit assigns CurLevel = Level+1 = 1,
	// so advanceRange(lo=0, hi=2) keeps every query eligible forever.
	never := func(v graph.Vertex, q *Query) (int, bool) { return 0, false }
	in := NewInstance(m, g, qs, never)
	in.Prime(m.Root())
	return in
}

func TestAdvanceRangeAllocsSteadyState(t *testing.T) {
	in := cycleInstance(32)
	v := in.M.Root()
	// Warm the arena: the first multistep checks the buffers out of nothing.
	advanceRange(v, in, in.Nodes, 0, 2)
	allocs := testing.AllocsPerRun(50, func() {
		if n := advanceRange(v, in, in.Nodes, 0, 2); n != int64(in.M.N()) {
			t.Fatalf("advanced %d queries, want %d", n, in.M.N())
		}
	})
	if allocs > 1 {
		t.Errorf("steady-state advanceRange allocates %.0f per multistep, want ≤ 1", allocs)
	}
}

// TestThinBankPrimitivesAllocFree pins the arena contract of the thin sort
// banks: after one warm-up call, RAR and RAW over graph.Vertex values, RAR
// over *graph.Vertex values (core's pointer reads), and Route over Query
// records check their item, value, merge and move banks out of the mesh's
// arena and allocate nothing per call.
func TestThinBankPrimitivesAllocFree(t *testing.T) {
	m := mesh.New(16)
	v := m.Root()
	n := m.N()
	nodes := mesh.NewReg[graph.Vertex](m)
	mesh.Apply(v, nodes, func(i int, _ graph.Vertex) graph.Vertex {
		return graph.Vertex{ID: graph.VertexID(i), Level: int32(i % 7), ExtIdx: -1}
	})
	queries := mesh.NewReg[Query](m)
	mesh.Apply(v, queries, func(i int, _ Query) Query { return Query{ID: int32(i), Cur: graph.VertexID(i)} })
	var sink int64
	ops := []struct {
		name string
		f    func()
	}{
		{"RAR", func() {
			mesh.RAR(v,
				func(i int) (graph.VertexID, graph.Vertex, bool) {
					nd := mesh.Ref(v, nodes, i)
					return nd.ID, *nd, true
				},
				func(i int) (graph.VertexID, bool) { return graph.VertexID((i * 7) % n), true },
				func(i int, nd graph.Vertex, found bool) { sink += int64(nd.Level) })
		}},
		{"RAR by pointer", func() {
			mesh.RAR(v, nodeRecord(v, nodes),
				func(i int) (graph.VertexID, bool) { return graph.VertexID((i * 7) % n), true },
				func(i int, nd *graph.Vertex, found bool) { sink += int64(nd.Level) })
		}},
		{"RAW", func() {
			mesh.RAW(v,
				func(i int) (graph.VertexID, bool) { return graph.VertexID(i), true },
				func(i int) (graph.VertexID, graph.Vertex, bool) {
					nd := mesh.Ref(v, nodes, i)
					return nd.ID / 2, *nd, true
				},
				func(a, b graph.Vertex) graph.Vertex {
					a.Level += b.Level
					return a
				},
				func(i int, nd graph.Vertex, any bool) { sink += int64(nd.Level) })
		}},
		{"Route", func() {
			mesh.Route(v, queries, emptyQuery, func(i int, q Query) (int, bool) { return (i + 1) % n, true })
		}},
	}
	for _, op := range ops {
		op.f() // warm the arena
		if allocs := testing.AllocsPerRun(20, op.f); allocs != 0 {
			t.Errorf("steady-state %s allocates %.1f per call, want 0", op.name, allocs)
		}
	}
}
