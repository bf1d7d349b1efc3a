package mesh

import (
	"reflect"
	"sync"
)

// Scratch-buffer arena. Every compound mesh operation needs a transient
// item bank (the gathered view contents, the 2m-record sort bank of RAR,
// the move list of a routing). Allocating those banks per call makes an
// O(√n)-multistep search perform O(√n) full-mesh allocations and the GC
// dominates wall-clock time, so the arena keeps them alive on the Mesh:
// buffers are checked out per View operation and released when the
// operation returns. Buffers are simulation bookkeeping — they model the
// registers the physical machine already has — and carry no step charge.
//
// The arena is safe under RunParallel: concurrent submesh bodies check out
// distinct buffers from a mutex-protected per-type free list. Capacities
// are sized once from the mesh (2·N() elements, the largest bank any
// whole-mesh operation needs), so the steady-state multistep loop reuses
// the same handful of buffers with zero allocations.
//
// Released buffers are not zeroed: like the register file, they persist for
// the lifetime of the Mesh and are garbage-collected with it.

// arena maps each element type to its free list. A new Mesh has no pools;
// the first Checkout of a type creates one. A plain map under a read-write
// lock costs a few allocations as it grows, where a sync.Map costs a node
// per entry, and a fresh mesh creates a dozen or so pools.
type arena struct {
	mu    sync.RWMutex
	pools map[reflect.Type]any // *scratchPool[T] keyed by the type of *T
}

// scratchPool is the free list for one element type. The pointer is stored
// type-erased in the arena; Checkout/Release recover the typed view, so no
// boxing happens on the steady-state path.
type scratchPool[T any] struct {
	mu   sync.Mutex
	free [][]T // each with len 0, cap ≥ 2·N() (or a larger custom request)
	// slots backs free until more than poolSlots buffers are released at
	// once: room for the banks and merge buffers of one type that
	// concurrent submesh bodies hold, in the pool's own allocation.
	slots [poolSlots][]T
}

// poolSlots is the free-list capacity a pool starts with.
const poolSlots = 8

// poolFor returns (creating if needed) the free list for element type T.
// The lookup is allocation-free: the key is the reflect.Type of *T, built
// from a nil pointer that needs no boxing.
func poolFor[T any](m *Mesh) *scratchPool[T] {
	key := reflect.TypeOf((*T)(nil))
	a := &m.pools
	a.mu.RLock()
	p, ok := a.pools[key]
	a.mu.RUnlock()
	if !ok {
		a.mu.Lock()
		if p, ok = a.pools[key]; !ok {
			if a.pools == nil {
				a.pools = make(map[reflect.Type]any, 16)
			}
			sp := &scratchPool[T]{}
			sp.free = sp.slots[:0]
			a.pools[key], p = sp, sp
		}
		a.mu.Unlock()
	}
	return p.(*scratchPool[T])
}

// Checkout returns a scratch slice of length n from m's arena. Contents are
// unspecified (overwrite before reading, or reslice to [:0] and append).
// Release it when the operation is done; a buffer that is never released is
// merely an allocation, not a leak.
func Checkout[T any](m *Mesh, n int) []T {
	p := poolFor[T](m)
	p.mu.Lock()
	for len(p.free) > 0 {
		s := p.free[len(p.free)-1]
		p.free = p.free[:len(p.free)-1]
		if cap(s) >= n {
			p.mu.Unlock()
			return s[:n]
		}
		// Undersized stragglers (from a smaller custom request) are
		// dropped; the replacement allocated below re-enters the pool
		// at full size.
	}
	p.mu.Unlock()
	c := 2 * m.n
	if n > c {
		c = n
	}
	return make([]T, n, c)
}

// Release returns a slice obtained from Checkout to m's arena.
func Release[T any](m *Mesh, s []T) {
	if cap(s) == 0 {
		return
	}
	p := poolFor[T](m)
	p.mu.Lock()
	p.free = append(p.free, s[:0])
	p.mu.Unlock()
}
