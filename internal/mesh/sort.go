package mesh

import (
	"fmt"
	"reflect"
)

// sortBlock is the run length sortStable insertion-sorts before merging. A
// power of two keeps the comparison count within n·⌈log₂ n⌉: a block of b
// records costs at most ⌈log₂ b⌉ comparisons per record, which is the number
// of merge levels it saves.
const sortBlock = 16

// sortStable stable-sorts xs by less without allocating, calling less once
// per comparison. It insertion-sorts blocks of sortBlock records, then
// merges runs bottom-up, each level moving every record once between xs and
// buf (len(buf) ≥ len(xs); unused, and may be nil, when len(xs) ≤
// sortBlock); a pair of runs already in order costs one comparison and a
// copy. At most n·⌈log₂ n⌉ comparisons and O(n·log n) moves.
func sortStable[T any](xs, buf []T, less func(a, b T) bool) {
	n := len(xs)
	for a := 0; a < n; a += sortBlock {
		insertionSort(xs[a:min(a+sortBlock, n)], less)
	}
	if n <= sortBlock {
		return
	}
	src, dst := xs, buf[:n]
	for w := sortBlock; w < n; w *= 2 {
		for a := 0; a < n; a += 2 * w {
			m, b := min(a+w, n), min(a+2*w, n)
			if m == b || !less(src[m], src[m-1]) {
				copy(dst[a:b], src[a:b])
			} else {
				merge(dst[a:b], src[a:m], src[m:b], less)
			}
		}
		src, dst = dst, src
	}
	if &src[0] != &xs[0] {
		copy(xs, src)
	}
}

// insertionSort stable-sorts xs: each record is placed after every record
// that does not sort after it, found by binary search, and the records it
// passes shift up one cell.
func insertionSort[T any](xs []T, less func(a, b T) bool) {
	for i := 1; i < len(xs); i++ {
		x := xs[i]
		lo, hi := 0, i
		for lo < hi {
			h := int(uint(lo+hi) >> 1)
			if less(x, xs[h]) {
				hi = h
			} else {
				lo = h + 1
			}
		}
		copy(xs[lo+1:i+1], xs[lo:i])
		xs[lo] = x
	}
}

// merge merges the sorted runs l and r into dst (len(l)+len(r) cells),
// stably: on ties the record of l goes first.
func merge[T any](dst, l, r []T, less func(a, b T) bool) {
	i, j, k := 0, 0, 0
	for i < len(l) && j < len(r) {
		if less(r[j], l[i]) {
			dst[k] = r[j]
			j++
		} else {
			dst[k] = l[i]
			i++
		}
		k++
	}
	k += copy(dst[k:], l[i:])
	copy(dst[k:], r[j:])
}

// rankSort stable-sorts xs by rank, whose values lie in [0, bound): a
// counting sort in O(len(xs) + bound) time through buf (len(buf) ≥
// len(xs)) and a count bank checked out of m's arena.
func rankSort[T any](m *Mesh, xs, buf []T, rank func(T) int, bound int) {
	next := Checkout[int32](m, bound+1)
	clear(next)
	for _, x := range xs {
		next[rank(x)+1]++
	}
	for r := 1; r < bound; r++ {
		next[r] += next[r-1]
	}
	for _, x := range xs {
		r := rank(x)
		buf[next[r]] = x
		next[r]++
	}
	copy(xs, buf)
	Release(m, next)
}

// runSort is the single execution point of every charged sort: it applies
// fault injection (a lying comparator, a corrupted write-back cell) when an
// injector is installed, and verifies the output against a reference stable
// sort when audit mode is on. It performs no charging — callers keep their
// own cost lines. With injection and audit off it is exactly sortStable
// over a merge buffer from the arena: no allocation at steady state.
func runSort[T any](v View, op string, xs []T, less func(a, b T) bool) {
	runSortEq(v, op, xs, less, nil, nil, 0)
}

// runSortEq is runSort with two optional refinements of how the host runs
// and audits the sort; neither changes what the machine does or is charged.
//
// eq, when set, replaces reflect.DeepEqual in the audit, for banks whose
// records stand for values held elsewhere (Concentrate's picks): a fault
// that leaves the values in place is harmless and stays unreported, as it
// would on a bank of the values.
//
// rank, when set, maps every record to an integer in [0, bound) that orders
// the bank as less does (less(a, b) exactly when rank(a) < rank(b)), such
// as the origin processor of a sort-back. The honest sort then runs as a
// stable counting sort, whose output is the permutation the stable
// comparison sort gives. A lying comparator is defined by comparison index,
// so a sort the injector makes lie runs the comparison sort with the lie;
// the audit's reference is always the comparison sort, so it cross-checks
// the counting sort on every audited run.
func runSortEq[T any](v View, op string, xs []T, less func(a, b T) bool, eq func(a, b T) bool, rank func(T) int, bound int) {
	m := v.m
	var ref []T
	if m.audit && len(xs) > 0 {
		ref = append(ref, xs...)
	}
	// A bank of at most sortBlock records is one insertion-sorted block:
	// it needs no merge buffer, and counting it would cost more than
	// comparing it.
	var buf []T
	if len(xs) > sortBlock {
		buf = Checkout[T](m, len(xs))
	}
	var lie int64
	if m.inj != nil {
		lie = m.inj.SortLie(op, len(xs))
	}
	switch {
	case lie > 0:
		var n int64
		sortStable(xs, buf, func(a, b T) bool {
			n++
			r := less(a, b)
			if n >= lie {
				return !r
			}
			return r
		})
	case rank != nil && buf != nil:
		rankSort(m, xs, buf, rank, bound)
	default:
		sortStable(xs, buf, less)
	}
	corruptSlice(v, op, xs)
	if ref != nil {
		if eq == nil {
			eq = func(a, b T) bool { return reflect.DeepEqual(a, b) }
		}
		sortStable(ref, buf, less)
		for i := range ref {
			if !eq(xs[i], ref[i]) {
				panic(&AuditError{
					Geom: m.geometry(),
					Op:   op,
					Detail: fmt.Sprintf(
						"sort output differs from reference stable sort at record %d of %d", i, len(ref)),
				})
			}
		}
	}
	Release(m, buf)
}

// Sort sorts the view's record per processor into row-major order by less.
// The sort is stable. Cost: shearsort into snake order plus one row sweep to
// flip the odd rows into row-major order (see mesh.go cost formulas).
func Sort[T any](v View, r *Reg[T], less func(a, b T) bool) {
	v = v.begin(OpSort)
	xs := gatherScratch(v, r)
	runSort(v, "Sort", xs, less)
	scatter(v, r, xs)
	Release(v.m, xs)
	v.charge(OpSort, v.rowMajorSortCost())
}

// SortSnake sorts into snake-like order: even rows run left-to-right, odd
// rows right-to-left. This is the native output order of shearsort and is
// what scan-based algorithms on the physical machine consume. Cost: one
// shearsort.
func SortSnake[T any](v View, r *Reg[T], less func(a, b T) bool) {
	v = v.begin(OpSort)
	xs := gatherScratch(v, r)
	runSort(v, "SortSnake", xs, less)
	// Lay the sorted sequence back out in snake order.
	k := 0
	for row := 0; row < v.h; row++ {
		if row%2 == 0 {
			for c := 0; c < v.w; c++ {
				r.data[v.Global(row*v.w+c)] = xs[k]
				k++
			}
		} else {
			for c := v.w - 1; c >= 0; c-- {
				r.data[v.Global(row*v.w+c)] = xs[k]
				k++
			}
		}
	}
	Release(v.m, xs)
	v.charge(OpSort, v.sortCost())
}

// SortCost reports, without executing anything, the charge of one row-major
// Sort on the view under the active cost model. Harness code uses it to
// annotate tables.
func (v View) SortCost() int64 { return v.rowMajorSortCost() }

// doubleSortCost is the charge for sorting two records per processor (2m
// items on m processors): each transposition round moves two words per link,
// doubling the time of every phase.
func (v View) doubleSortCost() int64 { return 2 * v.rowMajorSortCost() }

// sortSlice stable-sorts a scratch slice holding up to perProc records per
// processor and charges the corresponding multi-record sort cost. Compound
// operations (RAR, RAW, Route) build on this single source of cost truth;
// op names the operation for fault injection and audit reports, and rank
// and bound, when rank is set, are runSortEq's dense integer order.
func sortSlice[T any](v View, op string, xs []T, perProc int, less func(a, b T) bool, rank func(T) int, bound int) {
	if perProc < 1 {
		perProc = 1
	}
	if len(xs) > perProc*v.Size() {
		panic("mesh: sortSlice overflow")
	}
	runSortEq(v, op, xs, less, nil, rank, bound)
	v.charge(OpSort, int64(perProc)*v.rowMajorSortCost())
}

// scanSlice charges one scan on the view and performs a segmented inclusive
// scan over a scratch slice (up to perProc records per processor); opName
// names the operation for fault injection and audit reports. In audit mode
// the output is verified against the full prefix identity on a pristine copy
// of the input: out[i] = op(out[i-1], in[i]) at interior records, and
// out[i] = in[i] at segment heads and record 0 — the head cells are part of
// the machine state too, so a fault landing there must not escape.
func scanSlice[T any](v View, opName string, xs []T, perProc int, head func(i int) bool, op func(a, b T) T) {
	if perProc < 1 {
		perProc = 1
	}
	if len(xs) > perProc*v.Size() {
		panic("mesh: scanSlice overflow")
	}
	var in []T
	if v.m.audit && len(xs) > 0 {
		in = append(in, xs...)
	}
	for i := 1; i < len(xs); i++ {
		if !head(i) {
			xs[i] = op(xs[i-1], xs[i])
		}
	}
	corruptSlice(v, opName, xs)
	if in != nil {
		for i := 0; i < len(xs); i++ {
			var want T
			if i == 0 || head(i) {
				want = in[i]
			} else {
				want = op(xs[i-1], in[i])
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
