package mesh

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestSortRowMajor(t *testing.T) {
	m := New(8)
	r := NewReg[int](m)
	v := m.Root().Sub(0, 0, 4, 4)
	xs := intsOnView(v, r, 10)
	Sort(v, r, func(a, b int) bool { return a < b })
	want := append([]int(nil), xs...)
	sort.Ints(want)
	got := Snapshot(v, r)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sorted[%d]=%d want %d", i, got[i], want[i])
		}
	}
}

func TestSortStability(t *testing.T) {
	m := New(4)
	type kv struct{ k, seq int }
	r := NewReg[kv](m)
	v := m.Root()
	for i := 0; i < v.Size(); i++ {
		Set(v, r, i, kv{k: i % 3, seq: i})
	}
	Sort(v, r, func(a, b kv) bool { return a.k < b.k })
	prev := kv{-1, -1}
	for i := 0; i < v.Size(); i++ {
		cur := At(v, r, i)
		if cur.k < prev.k || (cur.k == prev.k && cur.seq < prev.seq) {
			t.Fatalf("instability at %d: %+v after %+v", i, cur, prev)
		}
		prev = cur
	}
}

func TestSortSnakeOrder(t *testing.T) {
	m := New(4)
	r := NewReg[int](m)
	v := m.Root()
	intsOnView(v, r, 11)
	SortSnake(v, r, func(a, b int) bool { return a < b })
	// Read back in snake order; must be nondecreasing.
	prev := -1 << 30
	for row := 0; row < v.Rows(); row++ {
		for c := 0; c < v.Cols(); c++ {
			col := c
			if row%2 == 1 {
				col = v.Cols() - 1 - c
			}
			x := At(v, r, row*v.Cols()+col)
			if x < prev {
				t.Fatalf("snake order violated at row %d", row)
			}
			prev = x
		}
	}
}

func TestSortIsPermutation(t *testing.T) {
	m := New(8)
	r := NewReg[int](m)
	v := m.Root()
	xs := intsOnView(v, r, 12)
	Sort(v, r, func(a, b int) bool { return a < b })
	got := Snapshot(v, r)
	count := map[int]int{}
	for _, x := range xs {
		count[x]++
	}
	for _, x := range got {
		count[x]--
	}
	for k, c := range count {
		if c != 0 {
			t.Fatalf("value %d count off by %d", k, c)
		}
	}
}

func TestSortCostFormulas(t *testing.T) {
	// Counted: (⌈log₂h⌉+1)(h+w) + w. Theoretical: 3·max(h,w) + w.
	m := New(16)
	r := NewReg[int](m)
	v := m.Root()
	intsOnView(v, r, 13)
	Sort(v, r, func(a, b int) bool { return a < b })
	want := int64((log2Ceil(16)+1)*(16+16) + 16)
	if m.Steps() != want {
		t.Fatalf("counted sort cost %d want %d", m.Steps(), want)
	}

	mt := New(16, WithCostModel(CostTheoretical))
	rt := NewReg[int](mt)
	vt := mt.Root()
	intsOnView(vt, rt, 13)
	Sort(vt, rt, func(a, b int) bool { return a < b })
	if mt.Steps() != int64(3*16+16) {
		t.Fatalf("theoretical sort cost %d", mt.Steps())
	}
}

// shearsortExact executes shearsort phase by phase with genuine odd-even
// transposition rounds, counting real steps. It validates that the analytic
// charge in sortCost is an upper bound on the machine's true behaviour and
// that the final state matches the functional Sort.
func shearsortExact(h, w int, xs []int) (out []int, steps int64) {
	grid := make([][]int, h)
	for r := range grid {
		grid[r] = append([]int(nil), xs[r*w:(r+1)*w]...)
	}
	oddEvenRow := func(row []int, rev bool) int64 {
		var s int64
		for round := 0; round < len(row); round++ {
			start := round % 2
			for i := start; i+1 < len(row); i += 2 {
				a, b := row[i], row[i+1]
				if (!rev && a > b) || (rev && a < b) {
					row[i], row[i+1] = b, a
				}
			}
			s++
		}
		return s
	}
	phases := log2Ceil(h) + 1
	for p := 0; p < phases; p++ {
		var rowSteps int64
		for r := 0; r < h; r++ {
			s := oddEvenRow(grid[r], r%2 == 1)
			if s > rowSteps {
				rowSteps = s
			}
		}
		steps += rowSteps
		if p == phases-1 {
			break
		}
		col := make([]int, h)
		var colSteps int64
		for c := 0; c < w; c++ {
			for r := 0; r < h; r++ {
				col[r] = grid[r][c]
			}
			s := oddEvenRow(col, false)
			if s > colSteps {
				colSteps = s
			}
			for r := 0; r < h; r++ {
				grid[r][c] = col[r]
			}
		}
		steps += colSteps
	}
	out = make([]int, 0, h*w)
	for r := 0; r < h; r++ {
		if r%2 == 0 {
			out = append(out, grid[r]...)
		} else {
			for c := w - 1; c >= 0; c-- {
				out = append(out, grid[r][c])
			}
		}
	}
	return out, steps
}

func TestShearsortReferenceSortsAndMatchesCharge(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, side := range []int{2, 4, 8, 16} {
		xs := make([]int, side*side)
		for i := range xs {
			xs[i] = rng.Intn(100)
		}
		out, steps := shearsortExact(side, side, xs)
		for i := 1; i < len(out); i++ {
			if out[i-1] > out[i] {
				t.Fatalf("side %d: reference shearsort failed at %d", side, i)
			}
		}
		m := New(side)
		charge := m.Root().sortCost()
		if steps > charge {
			t.Fatalf("side %d: real steps %d exceed charge %d", side, steps, charge)
		}
		// The charge should be tight within a small constant.
		if charge > 2*steps+int64(4*side) {
			t.Fatalf("side %d: charge %d loose vs real %d", side, charge, steps)
		}
	}
}

// Property: shearsort reference output equals a plain sort for arbitrary
// inputs — the functional Sort and the machine agree.
func TestQuickShearsortEqualsSort(t *testing.T) {
	f := func(raw [16]uint8) bool {
		xs := make([]int, 16)
		for i, x := range raw {
			xs[i] = int(x)
		}
		out, _ := shearsortExact(4, 4, xs)
		want := append([]int(nil), xs...)
		sort.Ints(want)
		for i := range want {
			if out[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSortScratchPanicsOnOverflow(t *testing.T) {
	m := New(2)
	v := m.Root()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SortScratch(v, make([]int, 9), 2, func(a, b int) bool { return a < b })
}

// TestSortStableMatchesStdlib pins the in-package stable sort across the
// insertion-block and merge paths: the same order as the standard library's
// stable sort on inputs full of equal keys, at most n·⌈log₂ n⌉ less calls,
// and no allocation when the merge buffer is supplied.
func TestSortStableMatchesStdlib(t *testing.T) {
	type kv struct{ k, seq int }
	rng := rand.New(rand.NewSource(1))
	inputs := []struct {
		name string
		key  func(i, n int) int
	}{
		{"random", func(i, n int) int { return rng.Intn(8) }},
		{"wide", func(i, n int) int { return rng.Intn(n/4 + 1) }},
		{"sorted", func(i, n int) int { return i / 3 }},
		{"reversed", func(i, n int) int { return n - i/3 }},
	}
	for _, in := range inputs {
		name, key := in.name, in.key
		for _, n := range []int{0, 1, 2, 15, 16, 17, 31, 32, 33, 100, 257, 1000, 4097, 10000} {
			xs := make([]kv, n)
			for i := range xs {
				xs[i] = kv{key(i, n), i}
			}
			want := append([]kv(nil), xs...)
			slices.SortStableFunc(want, func(a, b kv) int { return a.k - b.k })
			calls := 0
			sortStable(xs, make([]kv, n), func(a, b kv) bool { calls++; return a.k < b.k })
			if !slices.Equal(xs, want) {
				t.Fatalf("%s n=%d: order differs from the standard library's stable sort", name, n)
			}
			if bound := n * log2Ceil(n); calls > bound {
				t.Fatalf("%s n=%d: %d less calls, want ≤ n·⌈log₂ n⌉ = %d", name, n, calls, bound)
			}
		}
	}

	src := make([]kv, 1000)
	for i := range src {
		src[i] = kv{rng.Intn(8), i}
	}
	xs, buf := make([]kv, len(src)), make([]kv, len(src))
	allocs := testing.AllocsPerRun(20, func() {
		copy(xs, src)
		sortStable(xs, buf, func(a, b kv) bool { return a.k < b.k })
	})
	if allocs != 0 {
		t.Fatalf("sortStable with a supplied buffer allocates %.1f per call, want 0", allocs)
	}
}

// rankedItem is a sort record with a dense integer rank and its collection
// order, so a counting sort and a comparison sort can be compared exactly.
type rankedItem struct {
	rank int32
	seq  int32
}

func byRank(a, b rankedItem) bool { return a.rank < b.rank }
func rankOf(it rankedItem) int    { return int(it.rank) }
func randomRanked(rng *rand.Rand, n, bound int) []rankedItem {
	xs := make([]rankedItem, n)
	for i := range xs {
		xs[i] = rankedItem{int32(rng.Intn(bound)), int32(i)}
	}
	return xs
}

// TestRankSortMatchesComparisonSort pins the counting path of the sort
// seam: on banks with many duplicate ranks (as a corrupted sort-back cell
// produces), it yields exactly the permutation the stable comparison sort
// yields.
func TestRankSortMatchesComparisonSort(t *testing.T) {
	m := New(8)
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 2, 17, 64, 128, 1000} {
		for _, bound := range []int{1, 2, 7, 64, 2 * m.N()} {
			xs := randomRanked(rng, n, bound)
			want := append([]rankedItem(nil), xs...)
			sortStable(want, make([]rankedItem, n), byRank)
			rankSort(m, xs, make([]rankedItem, n), rankOf, bound)
			if !slices.Equal(xs, want) {
				t.Fatalf("n=%d bound=%d: counting sort differs from the comparison sort", n, bound)
			}
		}
	}
}

// TestRankSortAuditCatchesInconsistentRank shows that audit mode checks the
// counting path against the comparison sort: a rank that disagrees with
// less sorts the bank wrongly, and the audit reports it.
func TestRankSortAuditCatchesInconsistentRank(t *testing.T) {
	m := New(8, WithAudit()) // 64 records: more than one sort block

	v := m.Root()
	xs := randomRanked(rand.New(rand.NewSource(3)), v.Size(), v.Size())
	runSortEq(v, "RAR", append([]rankedItem(nil), xs...), byRank, nil, rankOf, v.Size())

	defer func() {
		if _, ok := recover().(*AuditError); !ok {
			t.Fatal("an inconsistent rank passed the audit")
		}
	}()
	reversed := func(it rankedItem) int { return v.Size() - 1 - int(it.rank) }
	runSortEq(v, "RAR", xs, byRank, nil, reversed, v.Size())
}
