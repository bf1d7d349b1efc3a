// Kindserve: every query family the paper implements — dictionary
// membership ([PVS83] (2,3)-trees, §1), planar point location (Kirkpatrick
// hierarchies, §5), interval stabbing (§6), line–polyhedron intersection
// and tangent planes (DK hierarchies, §5 / Theorem 8) — served concurrently
// by ONE long-lived mesh as typed kinds, through a fleet of one (the
// serving surface every production path uses). Each kind owns its resident
// structure; the executor runs one multisearch round per kind-batch and
// interleaves kinds fairly (DESIGN.md §3.10, experiment E25).
//
// Every answer is checked against serve.HostAnswer, the sequential host
// oracle for that kind's structure.
//
//	go run ./examples/kindserve
package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/serve"
)

func main() {
	allKinds := []serve.Kind{
		serve.KindMembership, serve.KindPointLoc, serve.KindInterval,
		serve.KindLinePoly, serve.KindTangent,
	}
	f, err := fleet.New(fleet.Config{Instance: serve.Config{
		Side:   16,
		Linger: 500 * time.Microsecond,
		Kinds:  allKinds[1:], // membership is always served; opt in to the rest
	}})
	if err != nil {
		panic(err)
	}
	defer f.Shutdown(context.Background())

	ss := f.Structures()
	fmt.Printf("one 16×16 mesh serving %d query kinds:\n", len(f.Kinds()))

	const perKind = 64
	var wg sync.WaitGroup
	type tally struct {
		kind  string
		found int
		steps int64
	}
	results := make([]tally, len(allKinds))
	for ki, k := range allKinds {
		wg.Add(1)
		go func(ki int, k serve.Kind) {
			defer wg.Done()
			st := ss.Get(k)
			t := tally{kind: k.String()}
			for i := int64(0); i < perKind; i++ {
				args := st.ArgsFor(i)
				var res fleet.Result
				var err error
				for {
					res, err = f.LookupKind(context.Background(), k, args)
					if !errors.Is(err, serve.ErrOverloaded) {
						break
					}
					time.Sleep(time.Millisecond)
				}
				if err != nil {
					panic(fmt.Sprintf("%s lookup %v: %v", k, args, err))
				}
				want := serve.HostAnswer(st, args)
				if res.Found != want.Found || res.Value != want.Value {
					panic(fmt.Sprintf("%s %v: mesh answered found=%v value=%d, host oracle says found=%v value=%d",
						k, args, res.Found, res.Value, want.Found, want.Value))
				}
				if res.Found {
					t.found++
				}
				t.steps += int64(res.Steps)
			}
			results[ki] = t
		}(ki, k)
	}
	wg.Wait()

	for _, t := range results {
		fmt.Printf("  %-10s  %d/%d queries answered, %d found, %d descent steps, all oracle-checked ✓\n",
			t.kind, perKind, perKind, t.found, t.steps)
	}
	st := f.Stats().Agg
	fmt.Printf("%d lookups total, %d mesh rounds, 0 wrong answers\n",
		int64(len(allKinds))*perKind, st.Rounds)
}
