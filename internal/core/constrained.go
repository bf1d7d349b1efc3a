package core

import (
	"fmt"
	"math/bits"

	"repro/internal/graph"
	"repro/internal/mesh"
	"repro/internal/trace"
)

// This file implements Procedure Constrained-Multisearch(Ψ, δ) of §4.4.
//
// Ψ is the installed splitting (Primary or Secondary): the subgraphs G_i
// are the parts, identified by the part indices carried on vertices and
// mirrored on queries. δ is realized by maxPart: every |G_i| ≤ maxPart, and
// the mesh is tiled into δ-submeshes of cap = slotSide² ≥ maxPart
// processors each.
//
// The seven steps of the paper map to the code as follows:
//
//	1  mark queries whose current vertex lies in some G_i
//	2  Γ_i = ⌈(#marked queries in G_i)/n^δ⌉ via sort + segmented scans
//	3  exit if ΣΓ = 0
//	4  create Γ_i copies of each G_i in δ-submeshes (sort, copy-scan, sort)
//	5  move marked queries to the δ-submeshes, ≤ n^δ per submesh (sort)
//	6  log₂n local advancement rounds inside each δ-submesh (local RARs)
//	7  discard the copies
//
// When ΣΓ exceeds the number of physical δ-submeshes, each submesh
// simulates a constant number of "virtual" δ-submeshes (the paper's proof
// of Lemma 3) — realized here as register layers.

// CMSStats reports the accounting of one Constrained-Multisearch call,
// used by the Lemma 3 experiments (E1, E14).
type CMSStats struct {
	Marked     int   // queries marked in step 1
	TotalGamma int   // ΣΓ — number of subgraph copies created
	CopyVolume int   // ΣΓ_i·|G_i| — total size of all copies (Lemma 3 item (1))
	Layers     int   // virtual δ-submesh layers used
	Advanced   int64 // total query advancement steps performed in step 6
}

// Log2N returns ⌈log₂ size⌉ of the view — the paper's advancement budget
// x = log₂ n per Constrained-Multisearch call.
func Log2N(v mesh.View) int { return bits.Len(uint(v.Size() - 1)) }

// slotPlan is the δ-submesh tiling for a given maximum part size.
type slotPlan struct {
	slotSide int // side of one δ-submesh (power of two)
	grid     int // δ-submeshes per view side
	cap      int // slotSide² = n^δ: node capacity = query capacity per slot
	phys     int // grid² physical δ-submeshes
}

func planSlots(v mesh.View, maxPart int) slotPlan {
	if v.Rows() != v.Cols() {
		panic("core: constrained multisearch requires a square view")
	}
	if maxPart < 1 {
		maxPart = 1
	}
	slotSide := 1
	for slotSide*slotSide < maxPart {
		slotSide *= 2
	}
	if slotSide > v.Rows() {
		panic(fmt.Sprintf("core: part size %d needs a δ-submesh of side %d > mesh side %d",
			maxPart, slotSide, v.Rows()))
	}
	grid := v.Rows() / slotSide
	return slotPlan{slotSide: slotSide, grid: grid, cap: slotSide * slotSide, phys: grid * grid}
}

// cell returns the view-local index of position j inside physical δ-submesh
// phys.
func (p slotPlan) cell(vcols, phys, j int) int {
	subR, subC := phys/p.grid, phys%p.grid
	jR, jC := j/p.slotSide, j%p.slotSide
	return (subR*p.slotSide+jR)*vcols + subC*p.slotSide + jC
}

// ConstrainedMultisearch advances every marked query by up to `steps` search
// steps, stopping early when the query's next vertex leaves its subgraph
// G_i (or its search path ends). maxPart must bound every part size of the
// splitting in `slot`; steps is x = log₂n in the paper (use Log2N(v)).
func ConstrainedMultisearch(v mesh.View, in *Instance, slot graph.Slot, maxPart, steps int) CMSStats {
	defer trace.Span(v, "cms")()
	var st CMSStats
	plan := planSlots(v, maxPart)
	vcols := v.Cols()

	// Step 1: mark queries sitting in some G_i.
	endClassify := trace.Span(v, "classify")
	mesh.Apply(v, in.Queries, func(_ int, q Query) Query {
		q.Mark = q.ID != NoQuery && !q.Done && q.partFor(slot) != graph.NoPart
		return q
	})

	// Step 2: per-part marked-query counts, Γ_i, and slot offsets.
	type qitem struct {
		part, origin int32
		cnt, total   int32 // rank within part (1-based); part total
		off          int32 // inclusive prefix of Γ over parts (incl. own)
	}
	m := v.Size()
	qs := make([]qitem, 0, m)
	for i := 0; i < m; i++ {
		q := mesh.At(v, in.Queries, i)
		if q.Mark {
			qs = append(qs, qitem{part: q.partFor(slot), origin: int32(i), cnt: 1})
		}
	}
	st.Marked = len(qs)
	mesh.SortScratch(v, qs, 1, func(a, b qitem) bool {
		if a.part != b.part {
			return a.part < b.part
		}
		return a.origin < b.origin
	})
	headQ := func(i int) bool { return i == 0 || qs[i].part != qs[i-1].part }
	lastQ := func(i int) bool { return i == len(qs)-1 || qs[i].part != qs[i+1].part }
	mesh.ScanScratch(v, qs, 1, headQ, func(a, b qitem) qitem { b.cnt += a.cnt; return b })
	for i := range qs {
		qs[i].total = qs[i].cnt
	}
	mesh.ScanScratchRev(v, qs, 1, lastQ, func(a, b qitem) qitem { b.total = a.total; return b })
	gammaOf := func(total int32) int32 { return (total + int32(plan.cap) - 1) / int32(plan.cap) }
	for i := range qs {
		if headQ(i) {
			qs[i].off = gammaOf(qs[i].total)
		} else {
			qs[i].off = 0
		}
	}
	mesh.ScanScratch(v, qs, 1, func(i int) bool { return i == 0 },
		func(a, b qitem) qitem { b.off += a.off; return b })

	// Step 3: ΣΓ.
	if len(qs) > 0 {
		st.TotalGamma = int(qs[len(qs)-1].off)
	}
	if st.TotalGamma == 0 {
		v.Charge(1) // the exit test itself
		endClassify()
		return st
	}
	st.Layers = (st.TotalGamma + plan.phys - 1) / plan.phys
	if st.Layers > maxLayers {
		panic(fmt.Sprintf("core: ΣΓ=%d needs %d virtual layers (>%d); splitting is not normalized",
			st.TotalGamma, st.Layers, maxLayers))
	}
	endClassify()

	endExpand := trace.Span(v, "expand")
	// Step 4a: tell every vertex its part's Γ and slot base via a RAR
	// against the part directory (the segment heads of qs).
	type dirEntry struct{ gamma, base int32 }
	var dirParts []int32
	var dirVals []dirEntry
	for i := range qs {
		if headQ(i) {
			g := gammaOf(qs[i].total)
			dirParts = append(dirParts, qs[i].part)
			dirVals = append(dirVals, dirEntry{gamma: g, base: qs[i].off - g})
		}
	}
	nodeGamma := make([]int32, m)
	nodeBase := make([]int32, m)
	mesh.RAR(v,
		func(i int) (int32, dirEntry, bool) {
			if i < len(dirParts) {
				return dirParts[i], dirVals[i], true
			}
			return 0, dirEntry{}, false
		},
		func(i int) (int32, bool) {
			nd := mesh.At(v, in.Nodes, i)
			p := slot.PartOf(&nd)
			return p, nd.ID != graph.Nil && p != graph.NoPart
		},
		func(i int, e dirEntry, found bool) {
			if found {
				nodeGamma[i] = e.gamma
				nodeBase[i] = e.base
			}
		})

	// Step 4b: expand. Copies of record j of G_i are laid out contiguously
	// (positions ebase_i + j·Γ_i + c), so one forward copy-scan creates all
	// of them; a final sort delivers copy c to position j of slot base+c.
	// The scratch banks carry the vertex's local index in in.Nodes, which
	// does not change during the call; the vertex itself is read back once,
	// at placement.
	type nitem struct {
		part        int32
		id          graph.VertexID
		cnt, total  int32
		gamma, base int32
		ebase       int64 // inclusive prefix of Γ_p·|G_p| (incl. own part)
		idx         int32 // local index of the vertex in in.Nodes
	}
	ns := make([]nitem, 0, m)
	for i := 0; i < m; i++ {
		if nodeGamma[i] > 0 {
			nd := mesh.At(v, in.Nodes, i)
			ns = append(ns, nitem{
				part: slot.PartOf(&nd), id: nd.ID, cnt: 1,
				gamma: nodeGamma[i], base: nodeBase[i], idx: int32(i),
			})
		}
	}
	mesh.SortScratch(v, ns, 1, func(a, b nitem) bool {
		if a.part != b.part {
			return a.part < b.part
		}
		return a.id < b.id
	})
	headN := func(i int) bool { return i == 0 || ns[i].part != ns[i-1].part }
	lastN := func(i int) bool { return i == len(ns)-1 || ns[i].part != ns[i+1].part }
	mesh.ScanScratch(v, ns, 1, headN, func(a, b nitem) nitem { b.cnt += a.cnt; return b })
	for i := range ns {
		ns[i].total = ns[i].cnt
	}
	mesh.ScanScratchRev(v, ns, 1, lastN, func(a, b nitem) nitem { b.total = a.total; return b })
	for i := range ns {
		if headN(i) {
			ns[i].ebase = int64(ns[i].gamma) * int64(ns[i].total)
		} else {
			ns[i].ebase = 0
		}
	}
	mesh.ScanScratch(v, ns, 1, func(i int) bool { return i == 0 },
		func(a, b nitem) nitem { b.ebase += a.ebase; return b })
	var expTotal int64
	if len(ns) > 0 {
		expTotal = ns[len(ns)-1].ebase
	}
	st.CopyVolume = int(expTotal)
	if expTotal > int64(2*m) {
		panic(fmt.Sprintf("core: copy volume %d exceeds 2n=%d; splitting is not normalized (Lemma 3 item (1))",
			expTotal, 2*m))
	}

	type copyItem struct {
		id          graph.VertexID
		j, c        int32
		gamma, base int32
		idx         int32
	}
	src := make([]copyItem, len(ns))
	for i, it := range ns {
		j := it.cnt - 1
		if int(j) >= plan.cap {
			panic(fmt.Sprintf("core: part %d has %d vertices > capacity %d (maxPart too small)",
				it.part, it.total, plan.cap))
		}
		src[i] = copyItem{id: it.id, j: j, c: 0, gamma: it.gamma, base: it.base, idx: it.idx}
	}
	expanded, occupied := mesh.RouteScratch(v, src, int(expTotal), 2, func(i int) int {
		it := ns[i]
		partBase := it.ebase - int64(it.gamma)*int64(it.total)
		return int(partBase + int64(it.cnt-1)*int64(it.gamma))
	})
	mesh.ScanScratch(v, expanded, 2,
		func(i int) bool { return occupied[i] },
		func(a, b copyItem) copyItem { a.c++; return a })

	// Deliver copy c of record j to cell j of slot base+c.
	type placed struct {
		layer, cell int32
		idx         int32
	}
	place := make([]placed, len(expanded))
	for i, cp := range expanded {
		s := int(cp.base) + int(cp.c)
		place[i] = placed{
			layer: int32(s / plan.phys),
			cell:  int32(plan.cell(vcols, s%plan.phys, int(cp.j))),
			idx:   cp.idx,
		}
	}
	mesh.Release(in.M, expanded)
	mesh.Release(in.M, occupied)
	mesh.SortScratch(v, place, 2, func(a, b placed) bool {
		if a.layer != b.layer {
			return a.layer < b.layer
		}
		return a.cell < b.cell
	})
	for l := 0; l < st.Layers; l++ {
		copies, staged := in.layer(l)
		mesh.Fill(v, copies, emptyVertex)
		mesh.Fill(v, staged, emptyQuery)
	}
	for _, p := range place {
		copies, _ := in.layer(int(p.layer))
		mesh.Set(v, copies, int(p.cell), mesh.At(v, in.Nodes, int(p.idx)))
	}
	v.Charge(1)
	endExpand()

	// Step 5: move marked queries to the δ-submeshes (≤ cap per slot).
	endPlace := trace.Span(v, "place")
	type qplaced struct {
		layer, cell int32
		origin      int32 // local index of the query in in.Queries
	}
	qp := make([]qplaced, len(qs))
	for i, it := range qs {
		base := it.off - gammaOf(it.total)
		s := int(base) + int(it.cnt-1)/plan.cap
		qp[i] = qplaced{
			layer:  int32(s / plan.phys),
			cell:   int32(plan.cell(vcols, s%plan.phys, int(it.cnt-1)%plan.cap)),
			origin: it.origin,
		}
	}
	mesh.SortScratch(v, qp, 1, func(a, b qplaced) bool {
		if a.layer != b.layer {
			return a.layer < b.layer
		}
		return a.cell < b.cell
	})
	for _, p := range qp {
		_, staged := in.layer(int(p.layer))
		mesh.Set(v, staged, int(p.cell), mesh.At(v, in.Queries, int(p.origin)))
	}
	v.Charge(1)
	endPlace()

	// Step 6: log₂n advancement rounds inside every δ-submesh, all
	// submeshes in parallel, layers in sequence within a submesh.
	endAdvance := trace.Span(v, "advance")
	subs := v.Partition(plan.grid, plan.grid)
	advanced := make([]int64, len(subs))
	layers := st.Layers
	v.RunParallel(subs, func(si int, sub mesh.View) {
		for l := 0; l < layers; l++ {
			copies, staged := in.layer(l)
			live := mesh.Count(sub, staged, func(q Query) bool { return q.ID != NoQuery && q.Mark })
			for it := 0; it < steps && live > 0; it++ {
				mesh.RAR(sub, nodeRecord(sub, copies),
					func(i int) (graph.VertexID, bool) {
						q := mesh.Ref(sub, staged, i)
						return q.Cur, q.ID != NoQuery && q.Mark
					},
					func(i int, nd *graph.Vertex, found bool) {
						q := mesh.Ref(sub, staged, i)
						if !found {
							panic(fmt.Sprintf("core: staged query %d missing vertex %d in its δ-submesh copy", q.ID, q.Cur))
						}
						oldPart := q.partFor(slot)
						Visit(in.F, *nd, q)
						advanced[si]++
						if q.Done || q.partFor(slot) != oldPart {
							q.Mark = false
							live--
						}
					})
			}
		}
	})
	for _, a := range advanced {
		st.Advanced += a
	}
	endAdvance()

	// Step 7: return queries home (processor index == query ID) and discard
	// the copies.
	endReturn := trace.Span(v, "return")
	for l := 0; l < st.Layers; l++ {
		copies, staged := in.layer(l)
		mesh.RouteTo(v, staged, in.Queries, func(_ int, q Query) (int, bool) {
			return int(q.ID), q.ID != NoQuery
		})
		mesh.Fill(v, staged, emptyQuery)
		mesh.Fill(v, copies, emptyVertex)
	}
	mesh.Apply(v, in.Queries, func(_ int, q Query) Query {
		q.Mark = false
		return q
	})
	endReturn()
	return st
}
