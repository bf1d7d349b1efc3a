package mesh

import (
	"fmt"
	"reflect"
)

// sortStable stable-sorts xs by less in place, without reflection or
// allocation, calling less exactly once per comparison. It is the scheme of
// the standard library's stable sort — insertion-sorted blocks of 20 merged
// pairwise by SymMerge (Kim & Kutzner, ESA 2004) — written against less
// directly: adapting less to a three-way compare costs a second call
// whenever the first answers false. O(n·log n) comparisons, O(n·log² n)
// moves, no scratch memory.
func sortStable[T any](xs []T, less func(a, b T) bool) {
	n := len(xs)
	blockSize := 20
	a, b := 0, blockSize
	for b <= n {
		insertionSort(xs, a, b, less)
		a = b
		b += blockSize
	}
	insertionSort(xs, a, n, less)
	for blockSize < n {
		a, b = 0, 2*blockSize
		for b <= n {
			symMerge(xs, a, a+blockSize, b, less)
			a = b
			b += 2 * blockSize
		}
		if m := a + blockSize; m < n {
			symMerge(xs, a, m, n, less)
		}
		blockSize *= 2
	}
}

// insertionSort stable-sorts xs[a:b].
func insertionSort[T any](xs []T, a, b int, less func(a, b T) bool) {
	for i := a + 1; i < b; i++ {
		for j := i; j > a && less(xs[j], xs[j-1]); j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// symMerge merges the sorted runs xs[a:m] and xs[m:b] in place, stably.
func symMerge[T any](xs []T, a, m, b int, less func(a, b T) bool) {
	// A one-element left run: binary-search its place in the right run
	// and rotate it there by adjacent swaps.
	if m-a == 1 {
		i, j := m, b
		for i < j {
			h := int(uint(i+j) >> 1)
			if less(xs[h], xs[a]) {
				i = h + 1
			} else {
				j = h
			}
		}
		for k := a; k < i-1; k++ {
			xs[k], xs[k+1] = xs[k+1], xs[k]
		}
		return
	}
	// A one-element right run: the mirror image.
	if b-m == 1 {
		i, j := a, m
		for i < j {
			h := int(uint(i+j) >> 1)
			if !less(xs[m], xs[h]) {
				i = h + 1
			} else {
				j = h
			}
		}
		for k := m; k > i; k-- {
			xs[k], xs[k-1] = xs[k-1], xs[k]
		}
		return
	}
	mid := int(uint(a+b) >> 1)
	n := mid + m
	var start, r int
	if m > mid {
		start, r = n-b, mid
	} else {
		start, r = a, m
	}
	p := n - 1
	for start < r {
		c := int(uint(start+r) >> 1)
		if !less(xs[p-c], xs[c]) {
			start = c + 1
		} else {
			r = c
		}
	}
	end := n - start
	if start < m && m < end {
		rotate(xs, start, m, end)
	}
	if a < start && start < mid {
		symMerge(xs, a, start, mid, less)
	}
	if mid < end && end < b {
		symMerge(xs, mid, end, b, less)
	}
}

// rotate swaps the adjacent blocks xs[a:m] and xs[m:b] in place.
func rotate[T any](xs []T, a, m, b int) {
	i, j := m-a, b-m
	for i != j {
		if i > j {
			swapRange(xs, m-i, m, j)
			i -= j
		} else {
			swapRange(xs, m-i, m+j-i, i)
			j -= i
		}
	}
	swapRange(xs, m-i, m, i)
}

// swapRange swaps xs[a:a+n] with xs[b:b+n].
func swapRange[T any](xs []T, a, b, n int) {
	for i := 0; i < n; i++ {
		xs[a+i], xs[b+i] = xs[b+i], xs[a+i]
	}
}

// runSort is the single execution point of every charged sort: it applies
// fault injection (a lying comparator, a corrupted write-back cell) when an
// injector is installed, and verifies the output against a reference stable
// sort when audit mode is on. It performs no charging — callers keep their
// own cost lines. With injection and audit off it is exactly sortStable:
// two nil/bool checks, no allocation.
func runSort[T any](v View, op string, xs []T, less func(a, b T) bool) {
	runSortEq(v, op, xs, less, nil)
}

// runSortEq is runSort whose audit compares sorted records with eq instead
// of reflect.DeepEqual, for banks whose records stand for values held
// elsewhere (Concentrate's picks): a fault that leaves the values in place
// is harmless and stays unreported, as it would on a bank of the values.
func runSortEq[T any](v View, op string, xs []T, less func(a, b T) bool, eq func(a, b T) bool) {
	m := v.m
	var ref []T
	if m.audit && len(xs) > 0 {
		ref = append(ref, xs...)
	}
	if inj := m.inj; inj != nil {
		if k := inj.SortLie(op, len(xs)); k > 0 {
			var n int64
			sortStable(xs, func(a, b T) bool {
				n++
				r := less(a, b)
				if n >= k {
					return !r
				}
				return r
			})
		} else {
			sortStable(xs, less)
		}
		corruptSlice(v, op, xs)
	} else {
		sortStable(xs, less)
	}
	if ref != nil {
		if eq == nil {
			eq = func(a, b T) bool { return reflect.DeepEqual(a, b) }
		}
		sortStable(ref, less)
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
// op names the operation for fault injection and audit reports.
func sortSlice[T any](v View, op string, xs []T, perProc int, less func(a, b T) bool) {
	if perProc < 1 {
		perProc = 1
	}
	if len(xs) > perProc*v.Size() {
		panic("mesh: sortSlice overflow")
	}
	runSort(v, op, xs, less)
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
