package mesh

import (
	"sort"
	"testing"
)

// The arena must hand back the same backing store it was given: that is the
// whole point of the pool.
func TestCheckoutReuse(t *testing.T) {
	m := New(8)
	s1 := Checkout[int64](m, 10)
	if len(s1) != 10 || cap(s1) < 2*m.N() {
		t.Fatalf("Checkout len=%d cap=%d, want len 10 cap ≥ %d", len(s1), cap(s1), 2*m.N())
	}
	p1 := &s1[:1][0]
	Release(m, s1)
	s2 := Checkout[int64](m, 5)
	if &s2[:1][0] != p1 {
		t.Fatal("Checkout after Release did not reuse the buffer")
	}
	Release(m, s2)
	// Distinct element types get distinct pools.
	s3 := Checkout[int32](m, 5)
	Release(m, s3)
}

// Steady-state RAR must not allocate: the seed allocated its 2m-item bank
// and several sort.SliceStable artifacts on every call (7 allocs/op at
// side 64), which made the GC dominate multistep-heavy runs. The acceptance
// bar for this PR is ≥ 5× fewer, i.e. ≤ 1.
func TestRARAllocsSteadyState(t *testing.T) {
	m := New(64)
	v := m.Root()
	// Warm the arena once.
	doRAR := func() {
		RAR(v,
			func(i int) (int64, int64, bool) { return int64(i), int64(i) * 3, true },
			func(i int) (int64, bool) { return int64((i * 7) % v.Size()), true },
			func(i int, val int64, found bool) {},
		)
	}
	doRAR()
	allocs := testing.AllocsPerRun(20, doRAR)
	if allocs > 1 {
		t.Errorf("steady-state RAR allocates %.0f per op, want ≤ 1 (seed: 7)", allocs)
	}
}

// Sort and Concentrate share the gather path; they must be allocation-free
// at steady state too.
func TestSortConcentrateAllocsSteadyState(t *testing.T) {
	m := New(32)
	v := m.Root()
	r := NewReg[int64](m)
	body := func() {
		Sort(v, r, func(a, b int64) bool { return a < b })
		Concentrate(v, r, -1, func(x int64) bool { return x%2 == 0 })
		Scan(v, r, func(a, b int64) int64 { return a + b })
	}
	body()
	allocs := testing.AllocsPerRun(20, body)
	if allocs > 1 {
		t.Errorf("steady-state Sort+Concentrate+Scan allocates %.0f per op, want ≤ 1", allocs)
	}
}

// The sort engine's banks come from the arena too: the merge buffer of a
// scratch sort over a 2m bank, and the count bank and output bank of the
// counting sort-back in RAR and RAW. After one warm-up call none of them
// allocates.
func TestSortEngineAllocFree(t *testing.T) {
	m := New(32)
	v := m.Root()
	n := v.Size()
	bank := make([]int64, 2*n)
	ops := []struct {
		name string
		f    func()
	}{
		{"SortScratch", func() {
			for i := range bank {
				bank[i] = int64((i * 7919) % 1009)
			}
			SortScratch(v, bank, 2, func(a, b int64) bool { return a < b })
		}},
		{"RAR", func() {
			RAR(v,
				func(i int) (int64, int64, bool) { return int64(i), int64(i) * 3, true },
				func(i int) (int64, bool) { return int64((i * 7) % n), true },
				func(i int, val int64, found bool) {})
		}},
		{"RAW", func() {
			RAW(v,
				func(i int) (int64, bool) { return int64(i), true },
				func(i int) (int64, int64, bool) { return int64((i * 5) % n), int64(i), true },
				func(a, b int64) int64 { return a + b },
				func(i int, val int64, any bool) {})
		}},
	}
	for _, op := range ops {
		op.f()
		if allocs := testing.AllocsPerRun(20, op.f); allocs != 0 {
			t.Errorf("steady-state %s allocates %.1f per call, want 0", op.name, allocs)
		}
	}
}

// Concurrent submesh bodies must be able to check pooled buffers in and out
// without interfering; run with -race in CI. Each body sorts, RARs and
// concentrates inside its own sub-view; the parent's registers elsewhere
// must be untouched and every sub-view's result must be correct.
func TestRunParallelPooledStress(t *testing.T) {
	m := New(32)
	v := m.Root()
	r := NewReg[int64](m)
	for round := 0; round < 5; round++ {
		for i := 0; i < v.Size(); i++ {
			Set(v, r, i, int64((i*2654435761+round)%1000))
		}
		subs := v.Partition(4, 4)
		v.RunParallel(subs, func(idx int, sub View) {
			Sort(sub, r, func(a, b int64) bool { return a < b })
			// RAR: every processor reads the record keyed by its mirror.
			RAR(sub,
				func(i int) (int64, int64, bool) { return int64(i), At(sub, r, i), true },
				func(i int) (int64, bool) { return int64(sub.Size() - 1 - i), true },
				func(i int, val int64, found bool) {
					if !found {
						t.Errorf("sub %d: RAR miss at %d", idx, i)
					}
				})
			Scan(sub, r, func(a, b int64) int64 { return max(a, b) })
			Concentrate(sub, r, -1, func(x int64) bool { return x >= 0 })
		})
		// After sorting, a running-max scan and a total concentrate, each
		// sub-view must hold its original multiset's sorted-order maxima:
		// still sorted, nothing lost across sub-view borders.
		for si, sub := range subs {
			xs := Snapshot(sub, r)
			if !sort.SliceIsSorted(xs, func(i, j int) bool { return xs[i] < xs[j] }) {
				t.Fatalf("round %d sub %d: not sorted: %v", round, si, xs)
			}
		}
	}
}

// BenchmarkRARSteadyState is the allocation benchmark of the PR-1 acceptance
// bar (BENCH_PR1.json): one full-view RAR per iteration, the op the
// multistep loop is made of. Run with -benchmem.
func BenchmarkRARSteadyState(b *testing.B) {
	m := New(64)
	v := m.Root()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		RAR(v,
			func(i int) (int64, int64, bool) { return int64(i), int64(i) * 3, true },
			func(i int) (int64, bool) { return int64((i * 7) % v.Size()), true },
			func(i int, val int64, found bool) {},
		)
	}
}
