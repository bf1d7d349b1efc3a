package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// rtNames are the runtime/metrics the benchmark reads at window edges.
var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/tiny/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// rtSample is one reading of the benchmark process's runtime counters.
type rtSample struct {
	at              time.Time
	allocs, bytes   float64 // cumulative heap allocations, tiny ones included
	gcCycles        float64
	gcCPU, totalCPU float64 // runtime's estimates, for the GC's share
	cpu             float64 // user+system CPU seconds the process used
}

// rtReader reads the runtime counters into samples it reuses, so a read
// allocates nothing that would count against the code being timed.
type rtReader []metrics.Sample

func newRTReader() rtReader {
	s := make(rtReader, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	return s
}

func readRT() rtSample { return newRTReader().read() }

func (s rtReader) read() rtSample {
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtSample{at: time.Now(), allocs: v(0) + v(1), bytes: v(2), gcCycles: v(3), gcCPU: v(4), totalCPU: v(5), cpu: processCPU()}
}

// processCPU is the user+system CPU time of this process so far, in
// seconds. Unlike wall time it does not grow while a shared machine runs
// someone else on our cores.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return rusageCPU(&ru)
}

func rusageCPU(ru *syscall.Rusage) float64 {
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// rtDelta is the change in the runtime counters over one window.
type rtDelta struct {
	allocs, bytes, gcCycles, secs, gcCPUFrac, cpu float64
}

func (a rtSample) to(b rtSample) rtDelta {
	d := rtDelta{
		allocs:   b.allocs - a.allocs,
		bytes:    b.bytes - a.bytes,
		gcCycles: b.gcCycles - a.gcCycles,
		secs:     b.at.Sub(a.at).Seconds(),
		cpu:      b.cpu - a.cpu,
	}
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		d.gcCPUFrac = (b.gcCPU - a.gcCPU) / cpu
	}
	return d
}

func (d rtDelta) add(e rtDelta) rtDelta {
	return rtDelta{d.allocs + e.allocs, d.bytes + e.bytes, d.gcCycles + e.gcCycles, d.secs + e.secs, 0, d.cpu + e.cpu}
}

// heapPeak samples the live heap (as marked by the latest GC cycle) every
// few milliseconds. A serving run is cut into one-second sub-windows and
// reports the median of their peaks, which a single burst of requests in
// flight does not move; an uncut run reports its overall peak.
type heapPeak struct {
	stop  chan struct{}
	done  chan struct{}
	mu    sync.Mutex
	cur   uint64
	peaks []float64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	read := func() {
		metrics.Read(s)
		h.mu.Lock()
		h.cur = max(h.cur, s[0].Value.Uint64())
		h.mu.Unlock()
	}
	read()
	go func() {
		defer close(h.done)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return h
}

// cut closes the current sub-window.
func (h *heapPeak) cut() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.peaks = append(h.peaks, float64(h.cur))
	h.cur = 0
}

// Stop ends sampling and returns the median sub-window peak in bytes; a
// run with no complete sub-window reports its overall peak.
func (h *heapPeak) Stop() float64 {
	close(h.stop)
	<-h.done
	if len(h.peaks) == 0 {
		return float64(h.cur)
	}
	return median(h.peaks)
}

// latencies is a fixed-capacity store of per-operation latencies, shared
// by concurrent clients. Its capacity depends only on the run length, so
// the bytes it holds do not grow with the program's throughput; they are
// subtracted from the reported peak heap.
type latencies struct {
	buf []uint32 // nanoseconds, saturating at ~4.3 s
	n   atomic.Int64

	mu    sync.Mutex
	marks []int64 // sample counts at sub-window boundaries
}

func newLatencies(capacity int) *latencies {
	return &latencies{buf: make([]uint32, capacity)}
}

func (l *latencies) add(d time.Duration) {
	i := l.n.Add(1) - 1
	if i < int64(len(l.buf)) {
		l.buf[i] = uint32(min(max(d, 0), math.MaxUint32))
	}
}

func (l *latencies) bytes() uint64 { return uint64(4 * len(l.buf)) }

// count is the number of latencies kept.
func (l *latencies) count() int { return int(min(l.n.Load(), int64(len(l.buf)))) }

// mark closes a sub-window: the samples recorded since the previous mark.
func (l *latencies) mark() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.marks = append(l.marks, int64(l.count()))
}

// windowQuantile is the median over complete sub-windows of each one's
// q-quantile; with no complete sub-window it is the quantile of all
// samples.
func (l *latencies) windowQuantile(q float64) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var per []float64
	from := int64(0)
	for _, to := range l.marks {
		w := make([]float64, 0, to-from)
		for _, x := range l.buf[from:to] {
			w = append(w, float64(x))
		}
		if len(w) > 0 {
			sort.Float64s(w)
			per = append(per, quantile(w, q))
		}
		from = to
	}
	if len(per) == 0 {
		return quantile(l.sorted(), q)
	}
	return median(per)
}

// sorted returns the recorded latencies in nanoseconds, ascending.
func (l *latencies) sorted() []float64 {
	out := make([]float64, l.count())
	for i := range out {
		out[i] = float64(l.buf[i])
	}
	sort.Float64s(out)
	return out
}

// quantile interpolates linearly between the order statistics of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	f := pos - float64(lo)
	return sorted[lo]*(1-f) + sorted[lo+1]*f
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// span is one timed interval of the traced run. Spans of one operation
// share Req; Parent indexes the causing span within the same operation
// (-1 for its root). Times are nanoseconds since the tracer's epoch.
type span struct {
	Req    int64  `json:"req"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of a traced run in memory, up to a fixed count,
// and accumulates every span's self time: its duration minus the part of
// it that its child spans cover.
type tracer struct {
	epoch time.Time
	next  atomic.Int64

	mu    sync.Mutex
	kept  []span
	total int64
	self  map[string]*spanAcc
	// rounds maps each kind to the serving rounds (step-clock run
	// sequence numbers) that answered traced requests, with each round's
	// mesh time in ns; roundReqs counts those requests per kind.
	rounds    map[string]map[int]int64
	roundReqs map[string]int64
}

type spanAcc struct {
	n            int64
	durNS, selfN float64
}

// maxKeptSpans bounds the spans written out per traced run; self times
// use every span.
const maxKeptSpans = 50_000

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), self: map[string]*spanAcc{}, rounds: map[string]map[int]int64{}, roundReqs: map[string]int64{}}
}

// newReq returns a fresh operation ID.
func (t *tracer) newReq() int64 { return t.next.Add(1) }

// ns converts a wall-clock reading to the tracer's clock.
func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

// record files the spans of one finished operation, and the serving
// round that answered it, if any.
func (t *tracer) record(r *spanRec) {
	spans := r.spans
	selfs := make([]float64, len(spans))
	for i, s := range spans {
		var kids [][2]int64
		for _, c := range spans {
			if c.Parent == i {
				kids = append(kids, [2]int64{max(c.Start, s.Start), min(c.End, s.End)})
			}
		}
		selfs[i] = float64(s.End-s.Start) - covered(kids)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.total += int64(len(spans))
	if room := maxKeptSpans - len(t.kept); room > 0 {
		t.kept = append(t.kept, spans[:min(room, len(spans))]...)
	}
	for i, s := range spans {
		a := t.self[s.Name]
		if a == nil {
			a = &spanAcc{}
			t.self[s.Name] = a
		}
		a.n++
		a.durNS += float64(s.End - s.Start)
		a.selfN += selfs[i]
	}
	if r.run > 0 {
		k := t.rounds[r.kind]
		if k == nil {
			k = map[int]int64{}
			t.rounds[r.kind] = k
		}
		k[r.run] = r.roundNS
		t.roundReqs[r.kind]++
	}
}

// covered is the length of the union of the intervals.
func covered(iv [][2]int64) float64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, end int64
	end = math.MinInt64
	for _, x := range iv {
		if x[1] <= x[0] {
			continue
		}
		if x[0] > end {
			total += x[1] - x[0]
			end = x[1]
		} else if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return float64(total)
}

// meanDur and meanSelf report a span name's mean duration and self time in
// nanoseconds per span.
func (t *tracer) meanDur(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if a := t.self[name]; a != nil && a.n > 0 {
		return a.durNS / float64(a.n)
	}
	return 0
}

func (t *tracer) meanSelf(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if a := t.self[name]; a != nil && a.n > 0 {
		return a.selfN / float64(a.n)
	}
	return 0
}

// durations lists the recorded durations of one span name among the kept
// spans, in nanoseconds.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.kept {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// writeTo writes the kept spans as JSON lines.
func (t *tracer) writeTo(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var b strings.Builder
	for _, s := range t.kept {
		line, _ := json.Marshal(s)
		b.Write(line)
		b.WriteByte('\n')
	}
	if _, err := f.WriteString(b.String()); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
