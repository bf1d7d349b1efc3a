package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/loadgen"
	"repro/internal/obs"
	"repro/internal/serve"
)

// wireClients is the closed-loop client count over loopback: one
// keep-alive connection per core of the 2-core machine it was sized on.
const wireClients = 2

// httpTarget sends queries over HTTP with loadgen.HTTPTarget.
type httpTarget struct {
	t *loadgen.HTTPTarget
}

func (h httpTarget) lookup(ctx context.Context, kind serve.Kind, args serve.Args, rec *spanRec) (serve.Result, error) {
	t0 := time.Now()
	r, err := h.t.LookupKind(ctx, kind, args)
	if rec != nil {
		rec.add("wire.request", 0, t0, time.Now())
	}
	return r, err
}

// wireBench runs the meshserve binary with -batch-linger 0 and drives it
// over loopback in a closed loop.
type wireBench struct {
	bin  string
	seed int64

	cmd    *exec.Cmd
	exited chan error
	usage  *syscall.Rusage // of the last server, once it exited
	stderr *bytes.Buffer
	tgt    *loadgen.HTTPTarget
	ss     *serve.StructureSet
	book   *answerBook
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// setup starts meshserve and times exec until the first /healthz 200.
func (b *wireBench) setup() (time.Duration, error) {
	if b.ss == nil {
		ss, err := serve.BuildStructures(serveSide, defaultKeys(serveSide), 2, 3, nil)
		if err != nil {
			return 0, err
		}
		b.ss = ss
		b.book = newAnswerBook()
	}
	port, err := freePort()
	if err != nil {
		return 0, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	b.tgt = loadgen.NewHTTPTarget("http://" + addr)
	// Health polls and scrapes share the clients' connections.
	b.tgt.Client.Transport.(*http.Transport).MaxConnsPerHost = wireClients
	b.stderr = &bytes.Buffer{}
	b.cmd = exec.Command(b.bin, "-addr", addr, "-batch-linger", "0")
	b.cmd.Stderr = b.stderr
	// The server must not outlive the benchmark, even if it is killed.
	b.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := b.cmd.Start(); err != nil {
		return 0, fmt.Errorf("start meshserve: %w", err)
	}
	b.exited = make(chan error, 1)
	go func(c *exec.Cmd) { b.exited <- c.Wait() }(b.cmd)
	deadline := t0.Add(30 * time.Second)
	for {
		resp, err := b.tgt.Client.Get(b.tgt.Base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(t0), nil
			}
		}
		select {
		case err := <-b.exited:
			b.cmd = nil
			return 0, fmt.Errorf("meshserve exited before it was healthy (%v): %s", err, b.stderr.String())
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			return 0, errors.New("meshserve not healthy after 30s")
		}
	}
}

// close stops meshserve with SIGTERM (a graceful drain) and waits for it;
// a server that does not exit within the drain deadline is killed.
func (b *wireBench) close() error {
	if b.cmd == nil {
		return nil
	}
	cmd := b.cmd
	b.cmd = nil
	b.tgt.Client.CloseIdleConnections()
	_ = cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-b.exited:
		b.usage, _ = cmd.ProcessState.SysUsage().(*syscall.Rusage)
		// A SIGTERM that lands before meshserve installs its handler ends
		// the process by the signal itself; that is a clean stop too.
		var ee *exec.ExitError
		if errors.As(err, &ee) && ee.Sys().(syscall.WaitStatus).Signal() == syscall.SIGTERM {
			return nil
		}
		if err != nil {
			return fmt.Errorf("meshserve: %v: %s", err, b.stderr.String())
		}
		return nil
	case <-time.After(20 * time.Second):
		_ = cmd.Process.Kill()
		<-b.exited
		return errors.New("meshserve did not drain within 20s; killed")
	}
}

func (b *wireBench) measure(d time.Duration, tr *tracer, _ int) (*window, error) {
	var scrapes []*scrape
	var scrapeErr error
	cl := closedLoop{
		tgt:     httpTarget{b.tgt},
		clients: wireClients,
		kind:    serve.KindMembership,
		keys:    len(b.ss.Membership().Keys),
		seed:    b.seed,
		argsFor: loadgen.StructureArgs(b.ss),
		maxQPS:  20_000,
		edge: func() {
			if tr == nil {
				return
			}
			s, err := b.scrape()
			if err != nil && scrapeErr == nil {
				scrapeErr = err
			}
			scrapes = append(scrapes, s)
		},
	}
	ls, err := cl.run(d, tr, b.book)
	if err == nil {
		err = scrapeErr
	}
	if err != nil {
		return nil, err
	}
	w := ls.window()
	if tr != nil {
		m0, m1 := scrapes[0], scrapes[1]
		// A membership-only meshserve reports no per-kind rows.
		served := float64(m1.stats.Served - m0.stats.Served)
		rounds := float64(m1.stats.Rounds - m0.stats.Rounds)
		perKind := map[string]roundFigures{serve.KindMembership.String(): {served: served, rounds: rounds}}
		// Executor busy time: the mean mesh-stage time per request stands
		// in for the mean round time (rounds here hold one or two requests).
		mesh := stage("mesh_round")
		busy := 0.0
		if n := m1.stages.Count[mesh] - m0.stages.Count[mesh]; n > 0 {
			busy = float64(m1.stages.SumNS[mesh]-m0.stages.SumNS[mesh]) / float64(n) * rounds
		}
		w.layer = serveLayers(m0.stats, m1.stats, m0.stages, m1.stages, ls.secs, m1.maxBatch, b.ss, perKind, busy)
		rtt := tr.meanDur("wire.request")
		server := 0.0
		if n := m1.stats.Latency.Count - m0.stats.Latency.Count; n > 0 {
			server = (float64(m1.stats.Latency.Mean)*float64(m1.stats.Latency.Count) -
				float64(m0.stats.Latency.Mean)*float64(m0.stats.Latency.Count)) / float64(n)
		}
		w.layer["wire.rtt_us"] = rtt / 1e3
		w.layer["wire.server_us"] = server / 1e3
		w.layer["wire.self_us"] = (rtt - server) / 1e3
		if ls.attempted > 0 {
			w.layer["wire.client_allocs_per_request"] = ls.rt.allocs / float64(ls.attempted)
		}
	}
	return w, nil
}

func (b *wireBench) verify() []string {
	b.book.verify(b.ss)
	if b.book.wrong > 0 {
		return []string{fmt.Sprintf("%d wrong answers over the wire; first: %s", b.book.wrong, b.book.why)}
	}
	return nil
}

// scrape is one reading of meshserve's /metrics: the serving counters
// from the JSON document and the stage sums from the Prometheus one.
type scrape struct {
	stats    serve.Stats
	maxBatch int
	stages   obs.StageSnapshot
}

func (b *wireBench) scrape() (*scrape, error) {
	get := func(path string) ([]byte, error) {
		resp, err := b.tgt.Client.Get(b.tgt.Base + path)
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", path, err)
		}
		defer resp.Body.Close()
		return io.ReadAll(resp.Body)
	}
	body, err := get("/metrics")
	if err != nil {
		return nil, err
	}
	var doc struct {
		Serve    serve.Stats `json:"serve"`
		MaxBatch int         `json:"max_batch"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	s := &scrape{stats: doc.Serve, maxBatch: doc.MaxBatch}
	if body, err = get("/metrics?format=prometheus"); err != nil {
		return nil, err
	}
	// meshserve_stage_duration_seconds_{sum,count}{stage="<name>"} <value>
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		rest, ok := strings.CutPrefix(line, "meshserve_stage_duration_seconds_")
		if !ok {
			continue
		}
		field, rest, _ := strings.Cut(rest, `{stage="`)
		name, rest, _ := strings.Cut(rest, `"}`)
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil || (field != "sum" && field != "count") {
			continue
		}
		for i, n := range obs.StageNames() {
			if n != name {
				continue
			}
			if field == "sum" {
				s.stages.SumNS[i] = int64(v * 1e9)
			} else {
				s.stages.Count[i] = int64(v)
			}
		}
	}
	return s, nil
}
