package mesh

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/graph"
)

// Fault model over the thin sort banks. RAR, RAW, the routings and
// Concentrate sort and scan small records that name their values by index;
// the values themselves sit in a side bank. These tests fire every single
// CorruptCell (src, dst) pair and every early SortLie at every consultation
// point of each operation, on a 4×4 mesh carrying graph.Vertex values, and
// require what a bank of the values themselves would give: in audit mode
// the operation delivers exactly what the honest run delivers or panics
// with *AuditError; without audit it may deliver wrong values or report a
// routing collision, but a fault never surfaces as a runtime error (an
// index out of range on the side bank).

// sweepInjector fires at most one fault: a CorruptCell(src, dst) at the
// corruptAt-th CorruptCell consultation, or a SortLie(k) at the lieAt-th
// SortLie consultation. With both indices negative it only records the bank
// length of every consultation.
type sweepInjector struct {
	corruptAt, src, dst int
	lieAt               int
	k                   int64

	corrupts, lies []int // bank length at each consultation so far
}

func (s *sweepInjector) SortLie(_ string, items int) int64 {
	s.lies = append(s.lies, items)
	if len(s.lies)-1 == s.lieAt {
		return s.k
	}
	return 0
}

func (s *sweepInjector) CorruptCell(_ string, items int) (int, int, bool) {
	s.corrupts = append(s.corrupts, items)
	if len(s.corrupts)-1 == s.corruptAt {
		return s.src, s.dst, true
	}
	return 0, 0, false
}

func (s *sweepInjector) DropReply(int) (int, bool)           { return 0, false }
func (s *sweepInjector) DuplicateReply(int) (int, int, bool) { return 0, 0, false }

// fatVertex is a fully populated vertex, so a value delivered from the
// wrong side-bank slot always differs from the right one.
func fatVertex(id int) graph.Vertex {
	v := graph.Vertex{ID: graph.VertexID(id), Level: int32(id % 5), Part: int32(id % 3), Deg: graph.MaxDegree, ExtIdx: -1}
	for j := range v.Adj {
		v.Adj[j] = graph.VertexID(id*graph.MaxDegree + j)
		v.AdjPart[j] = int32(j)
		v.AdjPart2[j] = int32(-j)
	}
	return v
}

// slimOps drives each thin-bank operation once on a fresh 4×4 mesh and
// returns everything it delivered or wrote.
var slimOps = []struct {
	name string
	run  func(m *Mesh) any
}{
	{"RAR", func(m *Mesh) any {
		v := m.Root()
		n := v.Size()
		got := make([]graph.Vertex, n)
		found := make([]bool, n)
		RAR(v,
			func(i int) (int32, graph.Vertex, bool) { return int32(3 * i), fatVertex(i), i%4 != 3 },
			// Keys 0..3n-1 in steps of 5: some hit a record, some miss,
			// and keys collide across requests.
			func(i int) (int32, bool) { return int32((5 * i) % (3 * n)), true },
			func(i int, val graph.Vertex, ok bool) { got[i], found[i] = val, ok })
		return [2]any{got, found}
	}},
	{"RAW", func(m *Mesh) any {
		v := m.Root()
		n := v.Size()
		got := make([]graph.Vertex, n)
		has := make([]bool, n)
		RAW(v,
			func(i int) (int32, bool) { return int32(i), i%3 != 2 },
			func(i int) (int32, graph.Vertex, bool) { return int32((7 * i) % n / 2), fatVertex(i), true },
			func(a, b graph.Vertex) graph.Vertex {
				if b.ID < a.ID {
					a.ID = b.ID
				}
				a.Level += b.Level
				return a
			},
			func(i int, val graph.Vertex, ok bool) { got[i], has[i] = val, ok })
		return [2]any{got, has}
	}},
	{"Route", func(m *Mesh) any {
		v := m.Root()
		n := v.Size()
		r := NewReg[graph.Vertex](m)
		Apply(v, r, func(i int, _ graph.Vertex) graph.Vertex { return fatVertex(i) })
		Route(v, r, graph.Vertex{ID: graph.Nil}, func(i int, x graph.Vertex) (int, bool) {
			return (5*i + 3) % n, i%3 != 0
		})
		return Snapshot(v, r)
	}},
	{"RouteTo", func(m *Mesh) any {
		v := m.Root()
		n := v.Size()
		src, dst := NewReg[graph.Vertex](m), NewReg[graph.Vertex](m)
		Apply(v, src, func(i int, _ graph.Vertex) graph.Vertex { return fatVertex(i) })
		RouteTo(v, src, dst, func(i int, x graph.Vertex) (int, bool) { return (7*i + 1) % n, i%4 != 1 })
		return Snapshot(v, dst)
	}},
	{"RouteScratch", func(m *Mesh) any {
		v := m.Root()
		n := v.Size()
		src := make([]graph.Vertex, n)
		for i := range src {
			src[i] = fatVertex(i)
		}
		dst, occ := RouteScratch(v, src, 2*n, 2, func(i int) int { return (11*i + 5) % (2 * n) })
		out := [2]any{append([]graph.Vertex(nil), dst...), append([]bool(nil), occ...)}
		Release(m, dst)
		Release(m, occ)
		return out
	}},
	{"Concentrate", func(m *Mesh) any {
		v := m.Root()
		r := NewReg[graph.Vertex](m)
		// Repeated values (every third cell empty) keep harmless faults
		// — ones that swap equal cells — in the sweep.
		Apply(v, r, func(i int, _ graph.Vertex) graph.Vertex {
			if i%3 == 0 {
				return graph.Vertex{ID: graph.Nil}
			}
			return fatVertex(i)
		})
		k := Concentrate(v, r, graph.Vertex{ID: graph.Nil}, func(x graph.Vertex) bool { return x.ID != graph.Nil })
		return [2]any{k, Snapshot(v, r)}
	}},
}

// runFaulted executes op on a fresh 4×4 mesh with inj installed and reports
// what it delivered and what it panicked with.
func runFaulted(op func(*Mesh) any, inj *sweepInjector, audit bool) (got any, panicked any) {
	opts := []Option{WithInjector(inj)}
	if audit {
		opts = append(opts, WithAudit())
	}
	m := New(4, opts...)
	defer func() { panicked = recover() }()
	return op(m), nil
}

func TestSlimBankFaultSweep(t *testing.T) {
	for _, op := range slimOps {
		t.Run(op.name, func(t *testing.T) {
			want, p := runFaulted(op.run, &sweepInjector{corruptAt: -1, lieAt: -1}, true)
			if p != nil {
				t.Fatalf("honest run panicked: %v", p)
			}
			dry := &sweepInjector{corruptAt: -1, lieAt: -1}
			runFaulted(op.run, dry, true)
			if len(dry.corrupts) == 0 || len(dry.lies) == 0 {
				t.Fatalf("no consultation points (corrupt %v, lie %v)", dry.corrupts, dry.lies)
			}
			var faults, caught int
			check := func(inj *sweepInjector, what string) {
				faults++
				got, p := runFaulted(op.run, inj, true)
				switch p.(type) {
				case nil:
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: audit passed but delivered values differ from the honest run", what)
					}
				case *AuditError:
					caught++
				default:
					t.Fatalf("%s: audited run panicked with %T %v, want *AuditError", what, p, p)
				}
				inj.corrupts, inj.lies = nil, nil
				if _, p := runFaulted(op.run, inj, false); p != nil {
					if _, isRuntime := p.(runtime.Error); isRuntime {
						t.Fatalf("%s: unaudited run hit a runtime error: %v", what, p)
					}
				}
			}
			for c, items := range dry.corrupts {
				for s := 0; s < items; s++ {
					for d := 0; d < items; d++ {
						if s != d {
							check(&sweepInjector{corruptAt: c, src: s, dst: d, lieAt: -1},
								fmt.Sprintf("CorruptCell(%d→%d) at consultation %d", s, d, c))
						}
					}
				}
			}
			for c, items := range dry.lies {
				for k := 1; k <= items; k++ {
					check(&sweepInjector{corruptAt: -1, lieAt: c, k: int64(k)},
						fmt.Sprintf("SortLie(%d) at sort %d", k, c))
				}
			}
			if caught == 0 {
				t.Fatalf("%d faults injected, none caught by the audit", faults)
			}
			t.Logf("%d faults over %d corrupt / %d lie consultations: %d caught, %d harmless",
				faults, len(dry.corrupts), len(dry.lies), caught, faults-caught)
		})
	}
}
