// Command perfbench is the repository's benchmark: four workloads taken
// from the paper, from the simulated mesh kernels to the HTTP wire, each
// measured end to end and, in a separate traced run, layer by layer from
// outside the program. See NOTES.md for the workloads, the metrics and
// what each layer's metric should move.
//
//	perfbench -workload <name> -seed <n> -seconds <s> -trace <0|1> -meshserve <binary>
//
// It runs from the repository root, reads BENCHMARK.json there for the
// metric names and units it must print, and prints one JSON object as the
// last line of its standard output.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"sort"
	"time"

	"repro/internal/loadgen"
	"repro/internal/serve"
)

// window is what one measured stretch of a workload yields.
type window struct {
	p50, p90  float64 // per-operation latency, ns
	p99       float64
	samples   int     // latency samples behind p50 and p90
	ops       float64 // operations that allocations are divided by
	qps       float64
	attempted int64
	failed    int64
	rt        rtDelta
	peakHeap  float64 // bytes
	lagP99    float64 // how late operations were sent after they were due, ns
	offered   float64 // operations offered per second
	layer     map[string]float64
}

// bench is one workload: set up (possibly several times; the last one
// stays), measure windows, verify every answer, close.
type bench interface {
	setup() (time.Duration, error)
	measure(d time.Duration, tr *tracer, part int) (*window, error)
	verify() []string
	close() error
}

// Each run sets up at least minSetups times, and more until a second has
// gone or maxSetups were made; setup_s is the median.
const (
	minSetups = 5
	maxSetups = 100
)

const outDir = ".bench_build/out"

//go:embed steps.json
var stepsJSON []byte

// recordedSteps are the mesh step totals the benchmark expects. The paper's
// step counts are deterministic; any change fails the run.
var recordedSteps = func() map[string]int64 {
	var m map[string]int64
	if err := json.Unmarshal(stepsJSON, &m); err != nil {
		panic(fmt.Sprintf("steps.json: %v", err))
	}
	return m
}()

func stepMismatch(key string, got int64) string {
	want, ok := recordedSteps[key]
	if !ok {
		return fmt.Sprintf("steps.json has no %q (measured %d)", key, got)
	}
	if want != got {
		return fmt.Sprintf("mesh steps %s = %d, steps.json records %d", key, got, want)
	}
	return ""
}

type opts struct {
	workload  string
	seed      int64
	seconds   int
	trace     bool
	meshserve string
}

func newBench(o opts) (bench, error) {
	switch o.workload {
	case "sim-paper":
		return &simBench{seed: o.seed}, nil
	case "serve-saturate":
		return &servingBench{seed: o.seed, closed: &closedLoop{clients: serveSide * serveSide, kind: serve.KindMembership, seed: o.seed, maxQPS: 150_000}}, nil
	case "serve-open-mixed":
		mix, err := loadgen.ParseKindMix("membership:0.6,pointloc:0.3,interval:0.1")
		if err != nil {
			return nil, err
		}
		return &servingBench{
			seed:  o.seed,
			kinds: mix.Kinds(),
			open:  &openLoop{rate: 3000, mix: mix, zipf: 1.2},
		}, nil
	case "wire-interactive":
		if o.meshserve == "" {
			return nil, errors.New("wire-interactive needs -meshserve")
		}
		return &wireBench{bin: o.meshserve, seed: o.seed}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", o.workload)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o opts
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "sim-paper | serve-saturate | serve-open-mixed | wire-interactive")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.meshserve, "meshserve", "", "meshserve binary (wire-interactive, and the wire probe of traced runs)")
	flag.Parse()
	o.trace = traceFlag == 1
	if o.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be ≥ 1 and -trace 0 or 1")
		os.Exit(2)
	}
	res, wrong, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	wrong = slices.Compact(wrong)
	for i, w := range wrong {
		if i == 20 {
			fmt.Fprintf(os.Stderr, "perfbench: … %d more\n", len(wrong)-i)
			break
		}
		fmt.Fprintf(os.Stderr, "perfbench: WRONG: %s\n", w)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%s seed %d, %ds, trace %v: %d attempted, %d failed, correct %v\n",
		o.workload, o.seed, o.seconds, o.trace, res.Attempted, res.Failed, res.Correct)
	for _, n := range names {
		fmt.Printf("  %-36s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run sets up, measures, verifies and tears down one workload.
func run(o opts) (res *result, wrong []string, err error) {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return nil, nil, err
	}
	b, err := newBench(o)
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		if cerr := b.close(); err == nil && cerr != nil {
			err = cerr
		}
	}()
	var setups []float64
	setupStart := time.Now()
	for i := 0; i < minSetups || (i < maxSetups && time.Since(setupStart) < time.Second); i++ {
		if i > 0 {
			if err := b.close(); err != nil {
				return nil, nil, err
			}
		}
		d, err := b.setup()
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.Seconds())
	}

	total := time.Duration(o.seconds) * time.Second
	values := map[string]float64{}
	res = &result{}
	if !o.trace {
		w, err := b.measure(total, nil, 0)
		if err != nil {
			return nil, nil, err
		}
		res.Attempted, res.Failed = w.attempted, w.failed
		values["setup_s"] = median(setups)
		values["p50_ms"] = w.p50 / 1e6
		values["p90_ms"] = w.p90 / 1e6
		values["qps"] = w.qps
		values["cpu_ms_per_op"] = w.rt.cpu * 1e3 / w.ops
		values["allocs_per_op"] = w.rt.allocs / w.ops
		values["bytes_per_op"] = w.rt.bytes / w.ops
		values["peak_heap_mb"] = w.peakHeap / 1e6
		if wb, ok := b.(*wireBench); ok {
			// The server's own CPU and memory are known once it exits.
			if err := wb.close(); err != nil {
				return nil, nil, err
			}
			values["cpu_ms_per_op"] += rusageCPU(wb.usage) * 1e3 / w.ops
			values["peak_heap_mb"] = float64(wb.usage.Maxrss) * 1024 / 1e6
		}
		fmt.Printf("latency samples: %d\n", w.samples)
	} else {
		if values, err = traced(o, b, total, res); err != nil {
			return nil, nil, err
		}
	}

	// Step fidelity: one round per served kind on fixed inputs, every run.
	_, steps, roundWrong, err := probeRounds(false)
	if err != nil {
		return nil, nil, err
	}
	wrong = append(b.verify(), roundWrong...)
	for k, v := range steps {
		if msg := stepMismatch(k, v); msg != "" {
			wrong = append(wrong, msg)
		}
	}
	if res.Metrics, err = spec.fill(values, o.trace); err != nil {
		return nil, nil, err
	}
	res.Correct = len(wrong) == 0
	return res, wrong, nil
}

// traced measures an untraced half window and a traced half window, then
// takes each layer the workload did not reach from that layer's probe.
func traced(o opts, b bench, total time.Duration, res *result) (map[string]float64, error) {
	u, err := b.measure(total/2, nil, 0)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	prof, err := os.Create(base + ".cpu.pprof")
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return nil, err
	}
	t, err := b.measure(total-total/2, tr, 1)
	pprof.StopCPUProfile()
	if cerr := prof.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if err := tr.writeTo(base + ".spans.jsonl"); err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = u.attempted+t.attempted, u.failed+t.failed

	v := t.layer
	v["go.gc_cpu_frac"] = t.rt.gcCPUFrac
	v["go.gc_cycles_per_s"] = t.rt.gcCycles / t.rt.secs
	v["loadgen.lag_p99_ms"] = t.lagP99 / 1e6
	v["loadgen.p99_ms"] = u.p99 / 1e6
	v["loadgen.offered_qps"] = t.offered
	v["loadgen.self_us"] = (tr.meanSelf("loadgen.request") + tr.meanSelf("loadgen.pass")) / 1e3
	v["trace.overhead_p50_ms"] = (t.p50 - u.p50) / 1e6
	v["trace.overhead_qps"] = t.qps - u.qps
	v["trace.spans"] = float64(tr.total)

	merge := func(m map[string]float64) {
		for k, x := range m {
			if _, ok := v[k]; !ok {
				v[k] = x
			}
		}
	}
	merge(probeMesh())
	rounds, _, _, err := probeRounds(true)
	if err != nil {
		return nil, err
	}
	merge(rounds)
	builds, err := probeBuilds()
	if err != nil {
		return nil, err
	}
	merge(builds)
	// Layers this workload does not reach are measured by a short run of
	// the workload that does.
	probe := func(key string, p bench) error {
		if _, ok := v[key]; ok {
			return nil
		}
		if _, err := p.setup(); err != nil {
			return err
		}
		w, err := p.measure(time.Second, newTracer(), 1)
		if cerr := p.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		if bad := p.verify(); len(bad) > 0 {
			return fmt.Errorf("probe: %s", bad[0])
		}
		merge(w.layer)
		return nil
	}
	if err := probe("core.hdag_ms", &simBench{seed: o.seed}); err != nil {
		return nil, err
	}
	if err := probe("fleet.lookup_us", &servingBench{seed: o.seed, closed: &closedLoop{clients: 64, kind: serve.KindMembership, seed: o.seed, maxQPS: 150_000}}); err != nil {
		return nil, err
	}
	if o.meshserve != "" {
		if err := probe("wire.rtt_us", &wireBench{bin: o.meshserve, seed: o.seed}); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// spec is the metric list of BENCHMARK.json.
type spec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// fill pairs each listed metric with its measured value; a listed metric
// without a value, or a value no metric lists, is an error in the
// benchmark itself.
func (s *spec) fill(values map[string]float64, perLayer bool) (map[string]metric, error) {
	list := s.EndToEnd
	if perLayer {
		list = s.PerLayer
	}
	out := map[string]metric{}
	for _, m := range list {
		v, ok := values[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.Name, v)
		}
		out[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	for n := range values {
		if _, ok := out[n]; !ok {
			return nil, fmt.Errorf("measured %s is not listed in BENCHMARK.json", n)
		}
	}
	return out, nil
}
