// Package core implements the paper's contribution: the multisearch
// algorithms for the mesh-connected computer.
//
//   - Constrained-Multisearch(Ψ, δ) — §4.4, Lemma 3
//   - Algorithm 1: multisearch for hierarchical DAGs — §3, Theorem 2
//   - Algorithm 2: log-phases for α-partitionable directed graphs — §4.5,
//     Theorem 5
//   - Algorithm 3: log-phases for α-β-partitionable undirected graphs —
//     §4.6, Theorem 7
//
// plus the two comparators: the [DR90]-style synchronous multistep baseline
// and the sequential oracle used as the correctness reference.
//
// Search paths are built on-line, exactly as the paper requires: a query
// only learns its next vertex by evaluating the successor function at the
// vertex it currently visits. Algorithms never inspect a query's future.
package core

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/mesh"
)

// StateWords is the number of per-query application state words. State is
// updated on every visit (accumulators, result slots); it is the only
// query-side memory, keeping query records O(1) words.
const StateWords = 6

// Query is the record of one search process. Cur is the next vertex the
// query must visit (graph.Nil once the search finished). CurPart, CurPart2
// and CurLevel mirror the splitter membership and level of Cur so that
// marking decisions are O(1)-local; they are maintained on every visit from
// the visited vertex's adjacency annotations.
type Query struct {
	ID       int32
	Cur      graph.VertexID
	CurPart  int32
	CurPart2 int32
	CurLevel int32
	Done     bool
	Mark     bool
	Steps    int32
	State    [StateWords]int64
}

// NoQuery marks an empty query cell.
const NoQuery int32 = -1

// Successor is the on-line search function f of §2: visiting vertex v with
// query q, it may update q.State and returns the adjacency slot of the next
// vertex, or done=true if the search path ends at v. Returning an edge
// outside [0, v.Deg) is a programming error and panics during the visit.
type Successor func(v graph.Vertex, q *Query) (edge int, done bool)

// Visit performs one search step: query q visits vertex v. It increments
// Steps, applies the successor, and maintains Cur/CurPart/CurPart2/CurLevel.
func Visit(f Successor, v graph.Vertex, q *Query) {
	q.Steps++
	edge, done := f(v, q)
	if done {
		q.Done = true
		q.Cur = graph.Nil
		q.CurPart = graph.NoPart
		q.CurPart2 = graph.NoPart
		q.CurLevel = -1
		return
	}
	if edge < 0 || edge >= int(v.Deg) {
		panic(fmt.Sprintf("core: successor returned edge %d at vertex %d (deg %d)", edge, v.ID, v.Deg))
	}
	q.Cur = v.Adj[edge]
	q.CurPart = v.AdjPart[edge]
	q.CurPart2 = v.AdjPart2[edge]
	q.CurLevel = v.Level + 1
}

// partFor returns the query's current part in the given splitting slot.
func (q *Query) partFor(slot graph.Slot) int32 {
	if slot == graph.Primary {
		return q.CurPart
	}
	return q.CurPart2
}

// Instance is a multisearch problem loaded onto a mesh: the graph G, the
// query set Q, and the successor function. The register set is fixed and
// O(1) per processor:
//
//	Nodes    — one vertex of G per processor (initial configuration)
//	Queries  — one query per processor, kept at processor index == ID
//	copies   — staged subgraph copies in δ-submeshes (per virtual layer)
//	staged   — staged queries in δ-submeshes (per virtual layer)
type Instance struct {
	M       *mesh.Mesh
	G       *graph.Graph
	F       Successor
	Nodes   *mesh.Reg[graph.Vertex]
	Queries *mesh.Reg[Query]
	NumQ    int

	copies []*mesh.Reg[graph.Vertex]
	staged []*mesh.Reg[Query]
}

// maxLayers bounds the number of virtual δ-submesh layers; each layer is
// one extra register pair, so this constant is the O(1) of "O(1) memory per
// processor". Lemma 3's accounting needs at most 2 when the splitting is
// normalized; 8 leaves headroom for adversarial tests.
const maxLayers = 8

var emptyVertex = func() graph.Vertex {
	var v graph.Vertex
	v.ID = graph.Nil
	v.Level = -1
	v.Part = graph.NoPart
	v.Part2 = graph.NoPart
	return v
}()

var emptyQuery = Query{ID: NoQuery, Cur: graph.Nil, CurPart: graph.NoPart, CurPart2: graph.NoPart, CurLevel: -1}

// NewInstance loads g and the queries onto mesh m in the paper's initial
// configuration: vertex i at processor i, query j at processor j. The graph
// and query set must each fit the mesh.
func NewInstance(m *mesh.Mesh, g *graph.Graph, queries []Query, f Successor) *Instance {
	if g.N() > m.N() {
		panic(fmt.Sprintf("core: graph with %d vertices exceeds mesh size %d", g.N(), m.N()))
	}
	if len(queries) > m.N() {
		panic(fmt.Sprintf("core: %d queries exceed mesh size %d", len(queries), m.N()))
	}
	in := &Instance{
		M: m, G: g, F: f,
		Nodes:   mesh.NewReg[graph.Vertex](m),
		Queries: mesh.NewReg[Query](m),
		NumQ:    len(queries),
	}
	root := m.Root()
	mesh.Fill(root, in.Nodes, emptyVertex)
	mesh.Load(root, in.Nodes, g.Verts)
	in.ResetQueries(root, queries)
	return in
}

// ResetQueries replaces the instance's query set with a fresh batch, leaving
// the loaded graph untouched: every query cell is cleared, the new queries
// are normalized (sequential IDs, zeroed progress, unknown splitter
// membership) and loaded at processor index == ID. This is what lets a
// long-lived serving mesh answer round after round of queries against one
// built structure without reloading it. Costs one Fill step; the loads are
// chargeless host initialization, as in NewInstance.
func (in *Instance) ResetQueries(v mesh.View, queries []Query) {
	if len(queries) > in.M.N() {
		panic(fmt.Sprintf("core: %d queries exceed mesh size %d", len(queries), in.M.N()))
	}
	mesh.Fill(v, in.Queries, emptyQuery)
	qs := make([]Query, len(queries))
	for i, q := range queries {
		q.ID = int32(i)
		q.Done = false
		q.Mark = false
		q.Steps = 0
		q.CurPart = graph.NoPart
		q.CurPart2 = graph.NoPart
		q.CurLevel = -1
		qs[i] = q
	}
	mesh.Load(v, in.Queries, qs)
	in.NumQ = len(queries)
}

// layer returns (allocating on first use) the i-th virtual δ-submesh
// register pair.
func (in *Instance) layer(i int) (*mesh.Reg[graph.Vertex], *mesh.Reg[Query]) {
	if i >= maxLayers {
		panic("core: virtual δ-submesh layers exceed the O(1) register budget")
	}
	for len(in.copies) <= i {
		in.copies = append(in.copies, mesh.NewReg[graph.Vertex](in.M))
		in.staged = append(in.staged, mesh.NewReg[Query](in.M))
	}
	return in.copies[i], in.staged[i]
}

// nodeRecord is the record side of core's vertex RARs: every processor
// holding a vertex of nodes offers it under its ID. The RAR carries a
// pointer into the register instead of a copy of the vertex, so a record
// no request reads costs nothing to move; the deliveries of these reads
// write only query registers, so every pointee is still the vertex the RAR
// read when the delivery dereferences it.
func nodeRecord(v mesh.View, nodes *mesh.Reg[graph.Vertex]) func(int) (graph.VertexID, *graph.Vertex, bool) {
	return func(i int) (graph.VertexID, *graph.Vertex, bool) {
		nd := mesh.Ref(v, nodes, i)
		return nd.ID, nd, nd.ID != graph.Nil
	}
}

// Prime performs the initial full-mesh random-access read that tells every
// query the splitter membership and level of its start vertex. One RAR,
// O(Sort(n)) time. Must run once before the first multistep.
func (in *Instance) Prime(v mesh.View) {
	mesh.RAR(v, nodeRecord(v, in.Nodes),
		func(i int) (graph.VertexID, bool) {
			q := mesh.Ref(v, in.Queries, i)
			return q.Cur, q.ID != NoQuery && !q.Done
		},
		func(i int, nd *graph.Vertex, found bool) {
			if !found {
				panic(fmt.Sprintf("core: query at %d starts at unknown vertex", i))
			}
			q := mesh.At(v, in.Queries, i)
			q.CurPart = nd.Part
			q.CurPart2 = nd.Part2
			q.CurLevel = nd.Level
			mesh.Set(v, in.Queries, i, q)
		})
}

// GlobalStep advances every unfinished query one step in its search path
// via one full-mesh random-access read (the paper's "every q ∈ Q visits the
// next node in its search path"). Returns the number of queries advanced.
func (in *Instance) GlobalStep(v mesh.View) int {
	advanced := 0
	mesh.RAR(v, nodeRecord(v, in.Nodes),
		func(i int) (graph.VertexID, bool) {
			q := mesh.Ref(v, in.Queries, i)
			return q.Cur, q.ID != NoQuery && !q.Done
		},
		func(i int, nd *graph.Vertex, found bool) {
			if !found {
				panic(fmt.Sprintf("core: query at %d visits unknown vertex", i))
			}
			Visit(in.F, *nd, mesh.Ref(v, in.Queries, i))
			advanced++
		})
	return advanced
}

// Unfinished counts the queries that have not completed their search paths.
func (in *Instance) Unfinished(v mesh.View) int {
	return mesh.Count(v, in.Queries, func(q Query) bool {
		return q.ID != NoQuery && !q.Done
	})
}

// ResultQueries snapshots the final query records in ID order (harness and
// test helper; no charge).
func (in *Instance) ResultQueries() []Query {
	all := mesh.Snapshot(in.M.Root(), in.Queries)
	out := make([]Query, in.NumQ)
	for _, q := range all {
		if q.ID != NoQuery {
			out[q.ID] = q
		}
	}
	return out
}
