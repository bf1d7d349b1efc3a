package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/fleet"
	"repro/internal/loadgen"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/trace"
)

// meshserve's defaults: 16×16 mesh, 2 ms batch linger, max batch = mesh
// size, observability on, a step-clock tracer per replica, no chaos or
// audit.
const (
	serveSide   = 16
	serveLinger = 2 * time.Millisecond
)

// target is one way of sending a query to the program under test. rec,
// when non-nil, receives the spans of the call below the load
// generator's root span.
type target interface {
	lookup(ctx context.Context, kind serve.Kind, args serve.Args, rec *spanRec) (serve.Result, error)
}

// spanRec collects the spans of one operation; index 0 is its root. A
// served request also names the round that answered it: its kind, the
// round's step-clock run number and the round's mesh time.
type spanRec struct {
	t       *tracer
	req     int64
	spans   []span
	kind    string
	run     int
	roundNS int64
}

func (t *tracer) begin(name string, start time.Time) *spanRec {
	r := &spanRec{t: t, req: t.newReq()}
	r.add(name, -1, start, start)
	return r
}

func (r *spanRec) add(name string, parent int, start, end time.Time) int {
	r.spans = append(r.spans, span{Req: r.req, Parent: parent, Name: name, Start: r.t.ns(start), End: r.t.ns(end)})
	return len(r.spans) - 1
}

func (r *spanRec) end(at time.Time) {
	r.spans[0].End = r.t.ns(at)
	r.t.record(r)
}

// fleetTarget sends queries through an in-process fleet. Traced calls
// begin the request trace themselves, so the serve layer's stage marks
// (admit, queue wait, linger, mesh round, deliver) come back as child spans
// of the fleet span.
type fleetTarget struct {
	f *fleet.Fleet
}

func (t fleetTarget) lookup(ctx context.Context, kind serve.Kind, args serve.Args, rec *spanRec) (serve.Result, error) {
	if rec == nil {
		r, err := t.f.LookupKind(ctx, kind, args)
		return r.Result, err
	}
	o := t.f.Observer()
	t0 := time.Now()
	tr := o.BeginClass(int(kind), obs.TraceID{}, args[0], t0)
	r, err := t.f.LookupKind(obs.NewContext(ctx, tr), kind, args)
	oc := obs.OutcomeMesh
	switch {
	case err != nil:
		oc = obs.OutcomeError
	case r.Degraded:
		oc = obs.OutcomeOracle
	}
	o.Finish(tr, oc, err)
	fl := rec.add("fleet.lookup", 0, t0, time.Now())
	for _, s := range tr.Spans {
		rec.add("serve."+s.Stage.String(), fl, tr.Start.Add(s.Start), tr.Start.Add(s.End))
		if s.Stage == obs.StageMesh {
			rec.roundNS = int64(s.Dur())
		}
	}
	rec.kind, rec.run = kind.String(), tr.RunSeq
	return r.Result, err
}

// answerBook holds the first answer seen for each (kind, needle). Every
// later answer must equal it, and after the timed window each first
// answer is compared against the host oracle, so every answer is checked
// while the checker's own CPU stays out of the window.
type answerBook struct {
	first map[[2]int64]serve.Answer
	wrong int64
	why   string
}

func newAnswerBook() *answerBook { return &answerBook{first: map[[2]int64]serve.Answer{}} }

func answerOf(r serve.Result) serve.Answer {
	return serve.Answer{Value: r.Value, Aux: r.Aux, Found: r.Found, Steps: r.Steps}
}

func (b *answerBook) note(kind serve.Kind, needle int64, a serve.Answer) {
	k := [2]int64{int64(kind), needle}
	if prev, ok := b.first[k]; !ok {
		b.first[k] = a
	} else if prev != a {
		b.mismatch(fmt.Sprintf("%s needle %d answered %+v, earlier %+v", kind, needle, a, prev))
	}
}

func (b *answerBook) mismatch(why string) {
	if b.wrong == 0 {
		b.why = why
	}
	b.wrong++
}

func (b *answerBook) merge(o *answerBook) {
	if o.wrong > 0 {
		b.mismatch(o.why)
		b.wrong += o.wrong - 1
	}
	for k, a := range o.first {
		b.note(serve.Kind(k[0]), k[1], a)
	}
}

// verify compares every first answer against serve.HostAnswer.
func (b *answerBook) verify(ss *serve.StructureSet) {
	for k, got := range b.first {
		kind := serve.Kind(k[0])
		st := ss.Get(kind)
		if st == nil {
			b.mismatch(fmt.Sprintf("answer for unserved kind %s", kind))
			continue
		}
		if want := serve.HostAnswer(st, st.ArgsFor(k[1])); want != got {
			b.mismatch(fmt.Sprintf("%s needle %d answered %+v, host oracle %+v", kind, k[1], got, want))
		}
	}
}

// loopStats is what one measured window of requests yields.
type loopStats struct {
	lat, lag    *latencies // per request: latency, and how late it was sent
	answered    int64
	failed      int64
	attempted   int64
	secs        float64 // window length
	offeredSecs float64 // span over which requests were offered
	rt          rtDelta
	peakHeap    float64 // bytes, the benchmark's own fixed buffers excluded
}

// closedLoop drives `clients` goroutines that each send their next request
// when the previous one returns. A request is due when its client's
// previous reply arrived; its lag is how long the client took to send it.
// Each client draws needles from its own seeded stream.
type closedLoop struct {
	tgt     target
	clients int
	kind    serve.Kind
	keys    int
	seed    int64
	argsFor func(serve.Kind, int64) serve.Args
	maxQPS  float64 // sizes the latency store
	edge    func()  // called as the measured window opens and closes
}

const warmup = 300 * time.Millisecond

// run warms up, then measures for d. The answers seen are merged into book.
func (c closedLoop) run(d time.Duration, tr *tracer, book *answerBook) (*loopStats, error) {
	draws := make([]loadgen.KeyDraw, c.clients)
	for i := range draws {
		kd, err := loadgen.UniformKeys(c.keys, c.seed*1_000_003+int64(i))
		if err != nil {
			return nil, err
		}
		draws[i] = kd
	}
	capacity := int(d.Seconds()*c.maxQPS) + 1024
	st := &loopStats{lat: newLatencies(capacity), lag: newLatencies(capacity)}
	ctx, cancel := context.WithTimeout(context.Background(), d+warmup+60*time.Second)
	defer cancel()

	const (
		warming = iota
		measuring
		stopped
	)
	var phase atomic.Int32
	var answered, failed, attempted atomic.Int64
	books := make([]*answerBook, c.clients)
	var wg sync.WaitGroup
	for i := 0; i < c.clients; i++ {
		books[i] = newAnswerBook()
		wg.Add(1)
		go func(kd loadgen.KeyDraw, book *answerBook) {
			defer wg.Done()
			due := time.Now()
			for {
				ph := phase.Load()
				if ph == stopped {
					return
				}
				needle := kd.Draw()
				args := c.argsFor(c.kind, needle)
				t0 := time.Now()
				var rec *spanRec
				if tr != nil && ph == measuring {
					rec = tr.begin("loadgen.request", due)
				}
				res, err := c.tgt.lookup(ctx, c.kind, args, rec)
				t1 := time.Now()
				if rec != nil {
					rec.end(t1)
				}
				if ph == measuring {
					attempted.Add(1)
					st.lag.add(t0.Sub(due))
					if err != nil {
						failed.Add(1)
					} else {
						answered.Add(1)
						st.lat.add(t1.Sub(t0))
						book.note(c.kind, needle, answerOf(res))
					}
				}
				due = t1
			}
		}(draws[i], books[i])
	}
	time.Sleep(warmup)
	c.edge()
	rt0 := readRT()
	hp := startHeapPeak()
	start := time.Now()
	phase.Store(measuring)
	stopTicks := subWindows(st.lat, hp)
	time.Sleep(d)
	phase.Store(stopped)
	stopTicks()
	offered := time.Since(start)
	wg.Wait()
	st.secs = time.Since(start).Seconds()
	st.offeredSecs = offered.Seconds()
	st.rt = rt0.to(readRT())
	c.edge()
	st.peakHeap = hp.Stop() - float64(st.lat.bytes()+st.lag.bytes())
	st.answered, st.failed, st.attempted = answered.Load(), failed.Load(), attempted.Load()
	for _, b := range books {
		book.merge(b)
	}
	if ctx.Err() != nil {
		return nil, errors.New("closed loop: requests still outstanding after the deadline")
	}
	return st, nil
}

// subWindow is the length of the sub-windows whose median p50, p90 and
// peak heap a serving run reports: long enough for a p90 with well over
// ten samples beyond it at every workload's rate.
const subWindow = time.Second

// subWindows cuts lat and hp into sub-windows until the returned stop is
// called; a trailing partial sub-window is not cut.
func subWindows(lat *latencies, hp *heapPeak) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(subWindow)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				lat.mark()
				hp.cut()
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}

// openLoop sends a seeded Poisson arrival plan at a fixed rate, each
// request on its own goroutine at its due time, whether or not earlier
// requests have returned. Latency runs from the due time, so a stall in
// the generator counts against the requests it delayed.
type openLoop struct {
	tgt     target
	rate    float64
	mix     *loadgen.KindMix
	zipf    float64
	keys    int
	argsFor func(serve.Kind, int64) serve.Args
	edge    func() // called as the measured window opens and closes
}

// maxInFlight caps outstanding open-loop requests; an arrival beyond it is
// shed and counts as failed (blocking would close the loop).
const maxInFlight = 4096

func (o openLoop) plan(d time.Duration, seed int64) ([]loadgen.TraceEvent, error) {
	arr, err := loadgen.Poisson(loadgen.Schedule{{Rate: o.rate, Dur: d}}, seed)
	if err != nil {
		return nil, err
	}
	kd, err := loadgen.ZipfKeys(o.keys, o.zipf, seed)
	if err != nil {
		return nil, err
	}
	return loadgen.GenerateMix(arr, kd, o.mix, o.argsFor, seed, 0)
}

// run plays a short warm-up plan, then a measured plan of length d.
// Answered events keep their answers for the check after the window.
func (o openLoop) run(d time.Duration, seed int64, tr *tracer) (*loopStats, []loadgen.TraceEvent, error) {
	warm, err := o.plan(warmup, seed^0x5eed)
	if err != nil {
		return nil, nil, err
	}
	if err := o.play(warm, nil, nil); err != nil {
		return nil, nil, err
	}
	events, err := o.plan(d, seed)
	if err != nil {
		return nil, nil, err
	}
	st := &loopStats{lat: newLatencies(len(events)), lag: newLatencies(len(events))}
	o.edge()
	rt0 := readRT()
	hp := startHeapPeak()
	stopTicks := subWindows(st.lat, hp)
	err = o.play(events, st, tr)
	stopTicks()
	if err != nil {
		return nil, nil, err
	}
	st.secs = d.Seconds()
	st.offeredSecs = time.Duration(events[len(events)-1].AtNS).Seconds()
	st.rt = rt0.to(readRT())
	o.edge()
	planBytes := uint64(cap(events)) * uint64(unsafe.Sizeof(loadgen.TraceEvent{}))
	st.peakHeap = hp.Stop() - float64(st.lat.bytes()+st.lag.bytes()+planBytes)
	return st, events, nil
}

// play fires the events on their schedule and waits for every reply.
func (o openLoop) play(events []loadgen.TraceEvent, st *loopStats, tr *tracer) error {
	total := time.Duration(events[len(events)-1].AtNS)
	ctx, cancel := context.WithTimeout(context.Background(), total+60*time.Second)
	defer cancel()
	sem := make(chan struct{}, maxInFlight)
	var wg sync.WaitGroup
	var answered, failed atomic.Int64
	start := time.Now()
	for i := range events {
		ev := &events[i]
		due := start.Add(time.Duration(ev.AtNS))
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		sent := time.Now()
		if st != nil {
			st.lag.add(sent.Sub(due))
		}
		select {
		case sem <- struct{}{}:
		default:
			failed.Add(1)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			var rec *spanRec
			if tr != nil {
				rec = tr.begin("loadgen.request", due)
			}
			res, err := o.tgt.lookup(ctx, ev.Kind, ev.Args, rec)
			done := time.Now()
			if rec != nil {
				rec.end(done)
			}
			if err != nil {
				failed.Add(1)
				return
			}
			answered.Add(1)
			ev.OK, ev.Found, ev.Value, ev.Aux, ev.Steps = true, res.Found, res.Value, res.Aux, res.Steps
			if st != nil {
				st.lat.add(done.Sub(due))
			}
		}()
	}
	wg.Wait()
	if st != nil {
		st.answered, st.failed, st.attempted = answered.Load(), failed.Load(), int64(len(events))
	}
	if ctx.Err() != nil {
		return errors.New("open loop: requests still outstanding after the deadline")
	}
	return nil
}

// checkEvents compares every answered event against the host oracle.
func checkEvents(events []loadgen.TraceEvent, book *answerBook) {
	for _, ev := range events {
		if ev.OK {
			book.note(ev.Kind, ev.Needle, serve.Answer{Value: ev.Value, Aux: ev.Aux, Found: ev.Found, Steps: ev.Steps})
		}
	}
}

// servingBench is an in-process fleet of one replica with meshserve's
// defaults, driven closed- or open-loop.
type servingBench struct {
	kinds  []serve.Kind
	closed *closedLoop // set for closed-loop workloads
	open   *openLoop   // set for open-loop workloads
	seed   int64

	f    *fleet.Fleet
	ss   *serve.StructureSet
	book *answerBook
}

func newFleet(kinds []serve.Kind) (*fleet.Fleet, error) {
	oc := obs.Config{Ring: 256, SLOP99: 50 * time.Millisecond, SLOMaxDegraded: 0.01}
	if len(kinds) > 1 {
		oc.Classes = serve.KindNames()
	}
	o := obs.New(oc)
	return fleet.New(fleet.Config{
		Replicas:   1,
		Instance:   serve.Config{Side: serveSide, Kinds: kinds, Linger: serveLinger, Obs: o},
		Policy:     fleet.RoundRobin(),
		MakeTracer: func(int) *trace.Tracer { return trace.New() },
		Obs:        o,
	})
}

func (b *servingBench) setup() (time.Duration, error) {
	t0 := time.Now()
	f, err := newFleet(b.kinds)
	if err != nil {
		return 0, err
	}
	d := time.Since(t0)
	b.f, b.ss = f, f.Structures()
	b.book = newAnswerBook()
	ss := b.ss
	keys := len(ss.Membership().Keys)
	if b.closed != nil {
		b.closed.tgt, b.closed.keys, b.closed.argsFor = fleetTarget{f}, keys, loadgen.StructureArgs(ss)
	}
	if b.open != nil {
		b.open.tgt, b.open.keys, b.open.argsFor = fleetTarget{f}, keys, loadgen.StructureArgs(ss)
	}
	return d, nil
}

func (b *servingBench) close() error {
	if b.f == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := b.f.Shutdown(ctx)
	b.f = nil
	return err
}

func (b *servingBench) measure(d time.Duration, tr *tracer, part int) (*window, error) {
	var stats []fleet.Stats
	var stages []obs.StageSnapshot
	edge := func() {
		stats = append(stats, b.f.Stats())
		stages = append(stages, b.f.Observer().Stages())
	}
	var ls *loopStats
	var err error
	if b.closed != nil {
		b.closed.edge = edge
		ls, err = b.closed.run(d, tr, b.book)
	} else {
		var events []loadgen.TraceEvent
		b.open.edge = edge
		ls, events, err = b.open.run(d, b.seed*7919+int64(part), tr)
		if err == nil {
			checkEvents(events, b.book)
		}
	}
	if err != nil {
		return nil, err
	}
	w := ls.window()
	if tr != nil {
		s0, s1 := stats[0], stats[1]
		perKind := map[string]roundFigures{}
		busy := 0.0
		for kind, runs := range tr.rounds {
			perKind[kind] = roundFigures{served: float64(tr.roundReqs[kind]), rounds: float64(len(runs))}
			for _, ns := range runs {
				busy += float64(ns)
			}
		}
		w.layer = serveLayers(s0.Agg, s1.Agg, stages[0], stages[1], ls.secs, b.f.MaxBatch(), b.ss, perKind, busy)
		w.layer["fleet.lookup_us"] = tr.meanDur("fleet.lookup") / 1e3
		w.layer["fleet.self_us"] = tr.meanSelf("fleet.lookup") / 1e3
		if n := s1.Dispatched - s0.Dispatched; n > 0 {
			w.layer["fleet.dispatches_per_lookup"] = float64(n+s1.Failovers-s0.Failovers+s1.Hedges-s0.Hedges) / float64(n)
		}
	}
	return w, nil
}

func (b *servingBench) verify() []string {
	b.book.verify(b.ss)
	if b.book.wrong > 0 {
		return []string{fmt.Sprintf("%d wrong answers; first: %s", b.book.wrong, b.book.why)}
	}
	return nil
}

// window turns loop statistics into the common per-window figures.
func (ls *loopStats) window() *window {
	w := &window{
		p50:       ls.lat.windowQuantile(0.50),
		p90:       ls.lat.windowQuantile(0.90),
		p99:       ls.lat.windowQuantile(0.99),
		samples:   ls.lat.count(),
		ops:       float64(ls.answered),
		attempted: ls.attempted,
		failed:    ls.failed,
		rt:        ls.rt,
		peakHeap:  ls.peakHeap,
		layer:     map[string]float64{},
	}
	if ls.secs > 0 {
		w.qps = float64(ls.answered) / ls.secs
	}
	w.lagP99 = quantile(ls.lag.sorted(), 0.99)
	if ls.offeredSecs > 0 {
		w.offered = float64(ls.attempted) / ls.offeredSecs
	}
	return w
}

// stage indexes obs.StageSnapshot arrays by stage name.
func stage(name string) int {
	for i, n := range obs.StageNames() {
		if n == name {
			return i
		}
	}
	panic("unknown obs stage " + name)
}

// roundFigures are one kind's answered requests and the rounds that
// answered them over a window.
type roundFigures struct{ served, rounds float64 }

// serveLayers derives the serve layer's figures over a window of secs
// seconds from counter and stage snapshots taken at its edges, per-kind
// round figures, and the executor's busy time in ns.
func serveLayers(a, b serve.Stats, sa, sb obs.StageSnapshot, secs float64, maxBatch int, ss *serve.StructureSet, perKind map[string]roundFigures, busyNS float64) map[string]float64 {
	m := map[string]float64{}
	deliver := stage("deliver")
	if answered := float64(sb.Count[deliver] - sa.Count[deliver]); answered > 0 {
		for metric, name := range map[string]string{"queue": "queue_wait", "linger": "batch_linger", "mesh": "mesh_round", "deliver": "deliver"} {
			st := stage(name)
			m["serve."+metric+"_us"] = float64(sb.SumNS[st]-sa.SumNS[st]) / answered / 1e3
		}
	}
	for k := serve.Kind(0); k < serve.NumKinds; k++ {
		m["serve.batch_fill."+k.String()] = 0
		st := ss.Get(k)
		f := perKind[k.String()]
		if st == nil || f.rounds <= 0 {
			continue
		}
		m["serve.batch_fill."+k.String()] = f.served / (f.rounds * float64(max(1, maxBatch/max(1, st.PerRequest()))))
	}
	m["serve.exec_busy_frac"] = busyNS / (secs * 1e9)
	m["serve.rounds_per_s"] = float64(b.Rounds-a.Rounds) / secs
	m["serve.rejected"] = float64(b.Rejected - a.Rejected)
	m["serve.retries"] = float64(b.Retries - a.Retries)
	m["serve.degraded"] = float64(b.Degraded - a.Degraded)
	return m
}
