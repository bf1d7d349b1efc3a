package core

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/mesh"
)

// ComputeLevels recomputes the level index of every vertex of a
// hierarchical DAG from its structure alone, on the mesh, using the
// peel-and-compress scheme the paper sketches in §3: "the level indices can
// be easily computed in time O(√n) by successively identifying the vertices
// in each level L_i, starting with level L_h, and compressing after each
// step the remaining levels into a subsquare of processors".
//
// Round k removes the current sinks (vertices whose children have all been
// removed) — these are exactly L_{h-k} in a hierarchical DAG, where every
// non-sink vertex has at least one child one level below. After each round
// the survivors are compressed; once they fit a quarter of the working
// square, the working square halves. Level sizes grow geometrically toward
// the bottom, so the total cost telescopes to O(Sort(√n)).
//
// The computed levels are written back into the Nodes register (and
// returned indexed by vertex ID). The instance's queries are untouched.
func ComputeLevels(v mesh.View, in *Instance) []int32 {
	if v.Rows() != v.Cols() {
		panic("core: ComputeLevels requires a square view")
	}
	work := mesh.NewReg[graph.Vertex](in.M)
	mesh.Fill(v, work, emptyVertex)
	mesh.RouteTo(v, in.Nodes, work, func(i int, nd graph.Vertex) (int, bool) {
		return i, nd.ID != graph.Nil
	})
	remaining := mesh.Concentrate(v, work, emptyVertex, func(nd graph.Vertex) bool {
		return nd.ID != graph.Nil
	})

	type peeled struct {
		id    graph.VertexID
		round int32
	}
	var done []peeled
	cur := v
	round := int32(0)
	for remaining > 0 {
		if round > int32(in.G.N()) {
			panic("core: ComputeLevels did not converge; graph is not a DAG with level-respecting arcs")
		}
		// A vertex is ready when none of its children are still present.
		// One RAR per adjacency slot (≤ MaxDegree, a constant).
		ready := make([]bool, remaining)
		for i := range ready {
			ready[i] = true
		}
		for slot := 0; slot < graph.MaxDegree; slot++ {
			mesh.RAR(cur,
				func(i int) (graph.VertexID, bool, bool) {
					nd := mesh.Ref(cur, work, i)
					return nd.ID, true, nd.ID != graph.Nil
				},
				func(i int) (graph.VertexID, bool) {
					nd := mesh.Ref(cur, work, i)
					if nd.ID == graph.Nil || slot >= int(nd.Deg) {
						return 0, false
					}
					return nd.Adj[slot], true
				},
				func(i int, _ bool, found bool) {
					if found && i < len(ready) {
						ready[i] = false
					}
				})
		}
		// Peel the ready vertices, keep the rest concentrated.
		kept := 0
		for i := 0; i < remaining; i++ {
			nd := mesh.At(cur, work, i)
			if ready[i] {
				done = append(done, peeled{id: nd.ID, round: round})
			} else {
				mesh.Set(cur, work, kept, nd)
				kept++
			}
		}
		for i := kept; i < remaining; i++ {
			mesh.Set(cur, work, i, emptyVertex)
		}
		cur.Charge(cur.SortCost()) // the concentration above
		if kept == remaining {
			panic("core: ComputeLevels stalled (cycle in the graph?)")
		}
		remaining = kept
		round++
		// Compress into a quarter square once the survivors fit. Gather
		// before rewriting: the regions overlap.
		for cur.Rows() > 1 && remaining <= (cur.Rows()/2)*(cur.Cols()/2) {
			buf := make([]graph.Vertex, remaining)
			for i := range buf {
				buf[i] = mesh.At(cur, work, i)
			}
			mesh.Fill(cur, work, emptyVertex)
			next := cur.Sub(0, 0, cur.Rows()/2, cur.Cols()/2)
			for i, nd := range buf {
				mesh.Set(next, work, i, nd)
			}
			cur.Charge(cur.SortCost()) // relayout into the subsquare
			cur = next
		}
	}

	// Convert rounds to levels (level = lastRound − round) and deliver them
	// home with one combining random-access write keyed by vertex ID.
	maxRound := round - 1
	levels := make([]int32, in.G.N())
	for _, p := range done {
		levels[p.id] = maxRound - p.round
	}
	mesh.RAW(v,
		func(i int) (graph.VertexID, bool) {
			nd := mesh.At(v, in.Nodes, i)
			return nd.ID, nd.ID != graph.Nil
		},
		func(i int) (graph.VertexID, int32, bool) {
			if i < len(done) {
				return done[i].id, maxRound - done[i].round, true
			}
			return 0, 0, false
		},
		func(a, b int32) int32 { return a }, // keys are unique: no combining
		func(i int, lvl int32, any bool) {
			if !any {
				panic(fmt.Sprintf("core: vertex at %d received no level", i))
			}
			nd := mesh.At(v, in.Nodes, i)
			nd.Level = lvl
			mesh.Set(v, in.Nodes, i, nd)
		})
	return levels
}
