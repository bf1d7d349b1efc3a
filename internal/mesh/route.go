package mesh

import (
	"cmp"
	"fmt"
	"reflect"
)

// Data movement operations: random-access read, routing, concentration, and
// block replication. These are the "standard mesh operations" the paper
// composes; all are built from sorts and scans so their charges follow from
// the primitive cost formulas. Item banks (the 2m-record sort banks of
// RAR/RAW, routing move lists) are checked out of the mesh's scratch arena
// and released on return, so the steady-state multistep loop allocates
// nothing.
//
// The banks these operations sort and scan are thin: a key, flags, an
// int32 origin and an int32 index into a side bank that holds the records'
// values, which are copied in once and read back only at delivery. The
// charges come from the cost formulas, not from the bytes the host moves,
// so the representation changes wall-clock time and nothing else: same
// charges, same op names and bank lengths at every injector consultation,
// and the audits still compare the values that are delivered.
//
// Scratch-slice variants (SortScratch, ScanScratch) model a bank of perProc
// registers per processor — perProc must remain O(1), which is how the
// physical machine sorts 2m items on m processors (two words per link per
// transposition round, doubling the phase time).

// SortScratch stable-sorts xs, a scratch bank holding up to perProc records
// per processor of the view, charging perProc row-major sorts.
func SortScratch[T any](v View, xs []T, perProc int, less func(a, b T) bool) {
	v = v.begin(OpSort)
	sortSlice(v, "SortScratch", xs, perProc, less, nil, 0)
}

// ScanScratch performs a segmented inclusive scan over scratch bank xs in
// index order, restarting wherever head reports true, charging perProc
// scans.
func ScanScratch[T any](v View, xs []T, perProc int, head func(i int) bool, op func(a, b T) T) {
	v = v.begin(OpScan)
	scanSlice(v, "ScanScratch", xs, perProc, head, op)
}

// ScanScratchRev is ScanScratch running in reverse index order: segment
// heads are tested in reverse order (head(i) true restarts the scan at i,
// moving from high indices to low). Mesh scans run equally well along the
// reversed snake; same cost.
func ScanScratchRev[T any](v View, xs []T, perProc int, head func(i int) bool, op func(a, b T) T) {
	v = v.begin(OpScan)
	scanSliceRev(v, "ScanScratchRev", xs, perProc, head, func(_ int, a, b T) T { return op(a, b) })
}

// move is one record of a routing's sort bank: the destination and the
// index of the routed value in the operation's value bank. Routings sort
// their move list by destination, which is also what detects collisions
// (adjacent duplicates after the sort).
type move struct {
	dest int32
	src  int32
}

// collectMoves builds the pooled move list and value bank for
// Route/RouteTo, validates destinations, and sorts the moves by
// destination. The caller releases both.
func collectMoves[T any](v View, read func(local int) T, sel func(local int, val T) (dest int, ok bool), opName string) ([]move, []T) {
	m := v.Size()
	moves := Checkout[move](v.m, m)[:0]
	vals := Checkout[T](v.m, m)[:0]
	for i := 0; i < m; i++ {
		val := read(i)
		if d, ok := sel(i, val); ok {
			if d < 0 || d >= m {
				panic("mesh: " + opName + " destination out of view")
			}
			moves = append(moves, move{int32(d), int32(len(vals))})
			vals = append(vals, val)
		}
	}
	sortSlice(v, opName, moves, 1, func(a, b move) bool { return a.dest < b.dest }, nil, 0)
	for i := 1; i < len(moves); i++ {
		if moves[i].dest == moves[i-1].dest {
			panic("mesh: " + opName + " destination collision")
		}
	}
	return moves, vals
}

// RouteTo moves selected records of src into computed destination cells of
// dst (a different register). Destinations must be distinct; cells of dst
// that receive no record are untouched. Cost: one sort.
func RouteTo[T any](v View, src, dst *Reg[T], sel func(local int, val T) (dest int, ok bool)) {
	v = v.begin(OpRoute)
	moves, vals := collectMoves(v, func(i int) T { return src.data[v.Global(i)] }, sel, "RouteTo")
	for _, mv := range moves {
		dst.data[v.Global(int(mv.dest))] = vals[mv.src]
	}
	Release(v.m, vals)
	Release(v.m, moves)
	v.charge(OpRoute, 1)
}

// RouteScratch routes the items of src into a scratch bank of dstLen cells
// (≤ perProc per processor): src[i] lands at dest(i). Destinations must be
// distinct; with an honest sort a collision panics (equal destinations are
// adjacent after the destination sort). occupied reports which cells
// received an item. The returned slices come from the arena — the caller
// must hand both back with Release when done with them. Cost: perProc sorts.
//
// The routing executes as a move-list sort by destination through runSort,
// so the fault-injection and audit seams cover it like every other charged
// sort (a lying comparator or corrupted move record trips the audit's
// reference-sort comparison before the scatter).
func RouteScratch[T any](v View, src []T, dstLen, perProc int, dest func(i int) int) (dst []T, occupied []bool) {
	v = v.begin(OpRoute)
	if perProc < 1 {
		perProc = 1
	}
	if dstLen > perProc*v.Size() {
		panic("mesh: RouteScratch overflow")
	}
	moves := Checkout[move](v.m, len(src))[:0]
	for i := range src {
		d := dest(i)
		if d < 0 || d >= dstLen {
			panic("mesh: RouteScratch destination out of range")
		}
		moves = append(moves, move{int32(d), int32(i)})
	}
	runSort(v, "RouteScratch", moves, func(a, b move) bool { return a.dest < b.dest })
	dst = Checkout[T](v.m, dstLen)
	occupied = Checkout[bool](v.m, dstLen)
	clear(dst)
	clear(occupied)
	for i, mv := range moves {
		if i > 0 && mv.dest == moves[i-1].dest {
			panic("mesh: RouteScratch destination collision")
		}
		dst[mv.dest] = src[mv.src]
		occupied[mv.dest] = true
	}
	Release(v.m, moves)
	v.charge(OpRoute, int64(perProc)*v.rowMajorSortCost())
	return dst, occupied
}

// rarExpect is the audit-mode oracle record for one RAR request (or one RAW
// record cell): the value the delivery sweep must hand back, and how many
// times it has been delivered so far.
type rarExpect[V any] struct {
	val   V
	found bool
	n     int
}

// auditDelivery cross-checks one delivery against the oracle expectation
// map and the delivered-exactly-once rule. Shared by RAR and RAW.
func auditDelivery[V any](v View, op string, expect map[int32]*rarExpect[V], origin int32, val V, found bool) {
	e := expect[origin]
	if e == nil {
		panic(&AuditError{Geom: v.m.geometry(), Op: op,
			Detail: fmt.Sprintf("delivery to processor %d, which expects none", origin)})
	}
	e.n++
	if e.n > 1 {
		panic(&AuditError{Geom: v.m.geometry(), Op: op,
			Detail: fmt.Sprintf("processor %d delivered to %d times", origin, e.n)})
	}
	if found != e.found {
		panic(&AuditError{Geom: v.m.geometry(), Op: op,
			Detail: fmt.Sprintf("processor %d delivered found=%v, oracle says %v", origin, found, e.found)})
	}
	if found && !reflect.DeepEqual(val, e.val) {
		panic(&AuditError{Geom: v.m.geometry(), Op: op,
			Detail: fmt.Sprintf("processor %d delivered a value differing from the oracle", origin)})
	}
}

// auditAllDelivered verifies that every expected delivery happened.
func auditAllDelivered[V any](v View, op string, expect map[int32]*rarExpect[V]) {
	for origin, e := range expect {
		if e.n == 0 {
			panic(&AuditError{Geom: v.m.geometry(), Op: op,
				Detail: fmt.Sprintf("reply for processor %d was never delivered (dropped)", origin)})
		}
	}
}

// RAR is the random-access read of Nassimi–Sahni: every processor may issue
// one keyed request, every processor may hold one keyed record, and each
// request receives the value of the record with its key. Concurrent reads
// of one record by many requests are supported (the duplication happens in
// the segmented copy-scan, not by magic). Record keys are expected to be
// unique within the view (the algorithms guarantee this; if violated, the
// last record in sorted order wins). Requests whose key has no record
// receive found=false.
//
// Mesh realization charged here: sort the 2m-item bank by (key, records
// first); copy-scan record values across the requests that follow them;
// sort the requests back by origin (on the host a counting sort, the
// origins being dense; see runSortEq). Cost: 1 double-sort + 1 double-scan
// + 1 single sort.
//
// In audit mode every delivery is cross-checked against a host-side oracle
// built from the pristine item bank, and each pending request must be
// delivered exactly once — which is what detects injected dropped or
// duplicated replies and corrupted bank records.
func RAR[K cmp.Ordered, V any](v View,
	record func(local int) (key K, val V, ok bool),
	request func(local int) (key K, ok bool),
	deliver func(local int, val V, found bool),
) {
	// item is one cell of the sort bank. val indexes vals and is meaningful
	// only when found: the copy-scan moves (val, found) as a pair, so a
	// request that found nothing never names a value.
	type item struct {
		key    K
		isReq  bool
		found  bool
		val    int32
		origin int32
	}
	v = v.begin(OpRAR)
	m := v.Size()
	items := Checkout[item](v.m, 2*m)[:0]
	vals := Checkout[V](v.m, m)[:0]
	for i := 0; i < m; i++ {
		if k, val, ok := record(i); ok {
			items = append(items, item{key: k, found: true, val: int32(len(vals)), origin: int32(i)})
			vals = append(vals, val)
		}
		if k, ok := request(i); ok {
			items = append(items, item{key: k, isReq: true, origin: int32(i)})
		}
	}
	value := func(it item) (val V) {
		if it.found {
			val = vals[it.val]
		}
		return val
	}
	// Audit oracle, built from the pristine bank before any sort can be
	// faulted: each request origin expects the value of the last record
	// collected with its key (matching the stable sort + copy-scan).
	var expect map[int32]*rarExpect[V]
	if v.m.audit {
		recs := make(map[K]rarExpect[V], len(items))
		for _, it := range items {
			if !it.isReq {
				recs[it.key] = rarExpect[V]{val: value(it), found: true}
			}
		}
		expect = make(map[int32]*rarExpect[V], len(items))
		for _, it := range items {
			if it.isReq {
				e := recs[it.key]
				expect[it.origin] = &rarExpect[V]{val: e.val, found: e.found}
			}
		}
	}
	sortSlice(v, "RAR", items, 2, func(a, b item) bool {
		if a.key != b.key {
			return a.key < b.key
		}
		return !a.isReq && b.isReq
	}, nil, 0)
	scanSlice(v, "RAR", items, 2,
		func(i int) bool { return i == 0 || items[i].key != items[i-1].key },
		func(a, b item) item {
			if b.isReq {
				b.val = a.val
				b.found = a.found
			}
			return b
		})
	// Keep only the requests, route them back to their origins.
	reqs := items[:0]
	for _, it := range items {
		if it.isReq {
			reqs = append(reqs, it)
		}
	}
	sortSlice(v, "RAR", reqs, 1, func(a, b item) bool { return a.origin < b.origin },
		func(it item) int { return int(it.origin) }, m)
	// Delivery sweep, with optional reply-fault injection: a dropped reply
	// is skipped, a duplicated reply lands a second time at another
	// request's origin.
	drop, dupSrc, dupDst := -1, -1, -1
	if inj := v.m.inj; inj != nil && len(reqs) > 0 {
		if d, ok := inj.DropReply(len(reqs)); ok && d >= 0 && d < len(reqs) {
			drop = d
		}
		if s, d, ok := inj.DuplicateReply(len(reqs)); ok &&
			s >= 0 && s < len(reqs) && d >= 0 && d < len(reqs) {
			dupSrc, dupDst = s, d
		}
	}
	for i, it := range reqs {
		if i == drop {
			continue
		}
		val := value(it)
		if expect != nil {
			auditDelivery(v, "RAR", expect, it.origin, val, it.found)
		}
		deliver(int(it.origin), val, it.found)
	}
	if dupSrc >= 0 {
		it, dst := reqs[dupSrc], reqs[dupDst]
		val := value(it)
		if expect != nil {
			auditDelivery(v, "RAR", expect, dst.origin, val, it.found)
		}
		deliver(int(dst.origin), val, it.found)
	}
	if expect != nil {
		auditAllDelivered(v, "RAR", expect)
	}
	Release(v.m, vals)
	Release(v.m, items)
	v.charge(OpRAR, 1)
}

// RAW is the combining random-access write, the dual of RAR: every
// processor may issue one keyed write, every processor may expose one keyed
// record cell, and each record cell receives the combination (under the
// associative, commutative combine) of all values written to its key.
// Record keys must be unique within the view. Cells nobody writes to are
// not delivered. Writes to keys with no record cell are dropped.
//
// Mesh realization charged here: sort the 2m-item bank by (key, record
// first); a reverse segmented copy-scan folds each key's writes together
// onto its record; sort the records back by origin (a counting sort on the
// host, as in RAR). Cost: 1 double-sort + 1 double-scan + 1 single sort.
//
// In audit mode every record delivery is cross-checked against a host-side
// fold of the pristine write set, mirroring RAR's oracle.
func RAW[K cmp.Ordered, V any](v View,
	record func(local int) (key K, ok bool),
	write func(local int) (key K, val V, ok bool),
	combine func(a, b V) V,
	deliver func(local int, combined V, any bool),
) {
	// item is one cell of the sort bank; val indexes vals and is meaningful
	// only when has. vals holds the written values in collection order,
	// then one fold slot per bank position: the reverse scan stores the
	// combination it computes at position i in slot fold+i.
	type item struct {
		key    K
		isRec  bool
		has    bool
		val    int32
		origin int32
	}
	v = v.begin(OpRAW)
	m := v.Size()
	items := Checkout[item](v.m, 2*m)[:0]
	vals := Checkout[V](v.m, 3*m)[:0]
	for i := 0; i < m; i++ {
		if k, ok := record(i); ok {
			items = append(items, item{key: k, isRec: true, origin: int32(i)})
		}
		if k, val, ok := write(i); ok {
			items = append(items, item{key: k, has: true, val: int32(len(vals)), origin: int32(i)})
			vals = append(vals, val)
		}
	}
	fold := len(vals)
	vals = vals[:fold+len(items)]
	// Audit oracle: each record origin expects the right-fold of all writes
	// to its key in collection order — exactly what the reverse copy-scan
	// computes on the stably sorted bank.
	var expect map[int32]*rarExpect[V]
	if v.m.audit {
		writes := make(map[K][]V, len(items))
		for _, it := range items {
			if !it.isRec {
				writes[it.key] = append(writes[it.key], vals[it.val])
			}
		}
		expect = make(map[int32]*rarExpect[V], len(items))
		for _, it := range items {
			if it.isRec {
				e := &rarExpect[V]{}
				if ws := writes[it.key]; len(ws) > 0 {
					acc := ws[len(ws)-1]
					for i := len(ws) - 2; i >= 0; i-- {
						acc = combine(ws[i], acc)
					}
					e.val, e.found = acc, true
				}
				expect[it.origin] = e
			}
		}
	}
	sortSlice(v, "RAW", items, 2, func(a, b item) bool {
		if a.key != b.key {
			return a.key < b.key
		}
		return a.isRec && !b.isRec
	}, nil, 0)
	// Reverse scan: fold write values toward the record at the front of
	// each key segment. b is always the unscanned cell at i, so a combining
	// b still names its own write, and slot fold+i is written only for
	// position i — the audit's recomputation rewrites the same value.
	scanSliceRev(v, "RAW", items, 2,
		func(i int) bool { return i == len(items)-1 || items[i].key != items[i+1].key },
		func(i int, a, b item) item {
			if a.has {
				if b.has {
					vals[fold+i] = combine(vals[b.val], vals[a.val])
					b.val = int32(fold + i)
				} else {
					b.val = a.val
					b.has = true
				}
			}
			return b
		})
	recs := items[:0]
	for _, it := range items {
		if it.isRec {
			recs = append(recs, it)
		}
	}
	sortSlice(v, "RAW", recs, 1, func(a, b item) bool { return a.origin < b.origin },
		func(it item) int { return int(it.origin) }, m)
	for _, it := range recs {
		var val V
		if it.has {
			val = vals[it.val]
		}
		if expect != nil {
			auditDelivery(v, "RAW", expect, it.origin, val, it.has)
		}
		deliver(int(it.origin), val, it.has)
	}
	if expect != nil {
		auditAllDelivered(v, "RAW", expect)
	}
	Release(v.m, vals)
	Release(v.m, items)
	v.charge(OpRAW, 1)
}

// scanSliceRev mirrors scanSlice in reverse index order, including the
// fault-injection consult and the audit-mode prefix-identity check (which,
// like scanSlice's, also pins the untouched head cells and the last record
// to their input values). op also receives the index i of the cell it
// computes, op(i, out[i+1], in[i]); the audit checks cells from the top
// down, so every out[i+1] it passes has already been verified.
func scanSliceRev[T any](v View, opName string, xs []T, perProc int, head func(i int) bool, op func(i int, a, b T) T) {
	if perProc < 1 {
		perProc = 1
	}
	if len(xs) > perProc*v.Size() {
		panic("mesh: scanSliceRev overflow")
	}
	var in []T
	if v.m.audit && len(xs) > 0 {
		in = append(in, xs...)
	}
	for i := len(xs) - 2; i >= 0; i-- {
		if !head(i) {
			xs[i] = op(i, xs[i+1], xs[i])
		}
	}
	corruptSlice(v, opName, xs)
	if in != nil {
		for i := len(xs) - 1; i >= 0; i-- {
			var want T
			if i == len(xs)-1 || head(i) {
				want = in[i]
			} else {
				want = op(i, xs[i+1], in[i])
			}
			if !reflect.DeepEqual(xs[i], want) {
				panic(&AuditError{
					Geom:   v.m.geometry(),
					Op:     opName,
					Detail: fmt.Sprintf("prefix identity broken at record %d of %d", i, len(xs)),
				})
			}
		}
	}
	v.charge(OpScan, int64(perProc)*v.scanCost())
}

// Route moves selected records of r to computed destination local indices.
// Destinations must be distinct (panic otherwise: a routing collision is a
// program bug in the calling algorithm — the paper's routings are always
// collision-free by construction). Source cells of moved records that do
// not themselves receive a record are set to clear. Cost: one sort.
func Route[T any](v View, r *Reg[T], clear T, sel func(local int, val T) (dest int, ok bool)) {
	v = v.begin(OpRoute)
	cleared := Checkout[int32](v.m, v.Size())[:0]
	moves, vals := collectMoves(v, func(i int) T { return r.data[v.Global(i)] },
		func(i int, val T) (int, bool) {
			d, ok := sel(i, val)
			if ok {
				cleared = append(cleared, int32(i))
			}
			return d, ok
		}, "Route")
	for _, i := range cleared {
		r.data[v.Global(int(i))] = clear
	}
	for _, mv := range moves {
		r.data[v.Global(int(mv.dest))] = vals[mv.src]
	}
	Release(v.m, cleared)
	Release(v.m, vals)
	Release(v.m, moves)
	v.charge(OpRoute, 1)
}

// Concentrate moves the records satisfying pred to local indices 0..k-1,
// preserving their order, sets every other cell to clear, and returns k.
// Cost: one sort (stable sort by the predicate).
//
// The concentration executes as a stable sort on the predicate through
// runSort — satisfying records before the rest, order preserved within each
// group — so the fault-injection and audit seams cover it like every other
// charged sort. The sorted bank holds {pred, source index} picks over the
// gathered cells; the audit compares the cells the picks name, so only a
// fault that changes the concentrated values is reported. The
// non-satisfying tail is overwritten with clear after the sort (and after
// the audit's reference comparison).
func Concentrate[T any](v View, r *Reg[T], clearVal T, pred func(T) bool) int {
	type pick struct {
		sel bool
		src int32
	}
	v = v.begin(OpConcentrate)
	xs := gatherScratch(v, r)
	picks := Checkout[pick](v.m, len(xs))
	k := 0
	for i, x := range xs {
		p := pred(x)
		if p {
			k++
		}
		picks[i] = pick{p, int32(i)}
	}
	runSortEq(v, "Concentrate", picks, func(a, b pick) bool { return a.sel && !b.sel },
		func(a, b pick) bool { return reflect.DeepEqual(xs[a.src], xs[b.src]) }, nil, 0)
	for i, p := range picks {
		if i < k {
			r.data[v.Global(i)] = xs[p.src]
		} else {
			r.data[v.Global(i)] = clearVal
		}
	}
	Release(v.m, picks)
	Release(v.m, xs)
	v.charge(OpConcentrate, v.rowMajorSortCost())
	return k
}

// BroadcastBlock writes block into local indices 0..len(block)-1 of every
// listed sub-view of parent. On the machine this is the pipelined submesh
// replication sweep: the block travels across the top row of submeshes and
// down every submesh column, words pipelined, in ≤ 2·(rows+cols) steps of
// the parent. block must fit in each sub-view.
//
// Fault model: one replicated cell misses the sweep and latches its
// pre-sweep word (the injector's CorruptCell over the len(subs)·len(block)
// written cells, src selecting the stale word, dst the cell that keeps it).
// Audit mode verifies every written cell against the block.
func BroadcastBlock[T any](parent View, r *Reg[T], block []T, subs []View) {
	parent = parent.begin(OpBroadcast)
	for _, s := range subs {
		if len(block) > s.Size() {
			panic("mesh: BroadcastBlock block larger than sub-view")
		}
	}
	written := len(subs) * len(block)
	cellOf := func(flat int) (View, int) { return subs[flat/len(block)], flat % len(block) }
	var stale T
	staleAt := -1
	if inj := parent.m.inj; inj != nil && written > 0 {
		if s, d, ok := inj.CorruptCell("BroadcastBlock", written); ok &&
			s != d && s >= 0 && d >= 0 && s < written && d < written {
			sv, si := cellOf(s)
			stale, staleAt = r.data[sv.Global(si)], d
		}
	}
	for _, s := range subs {
		for i, x := range block {
			r.data[s.Global(i)] = x
		}
	}
	if staleAt >= 0 {
		dv, di := cellOf(staleAt)
		r.data[dv.Global(di)] = stale
	}
	if parent.m.audit {
		for f := 0; f < written; f++ {
			sv, si := cellOf(f)
			if !reflect.DeepEqual(r.data[sv.Global(si)], block[si]) {
				panic(&AuditError{
					Geom:   parent.m.geometry(),
					Op:     "BroadcastBlock",
					Detail: fmt.Sprintf("replicated cell %d of sub-view %d differs from the block", si, f/len(block)),
				})
			}
		}
	}
	parent.charge(OpBroadcast, int64(2*(parent.h+parent.w)))
}
