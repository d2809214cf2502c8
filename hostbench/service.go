package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/moatlab/melody/internal/melody"
	"github.com/moatlab/melody/internal/melody/spec"
)

// serviceClients is the closed loop's client count, never more than
// nproc; hitsPerRound is how many repeated specs each client submits
// per round after its one new spec. It is fixed, so every round does
// the same work on any commit, and sized so that the hit phase and the
// miss phase each take about half of a round (README.md gives the
// measured split; every run prints it as hit_phase_share).
const (
	serviceClients = 2
	hitsPerRound   = 400
	pollInterval   = 5 * time.Millisecond
)

func clientCount() int {
	if nproc < serviceClients {
		return nproc
	}
	return serviceClients
}

// missSpec is the new spec client c submits in round i: a small fig8f
// run whose seed is derived from the benchmark seed, so every round's
// miss is distinct and the whole script is a function of the seed.
func missSpec(seed uint64, client, round int) spec.RunSpec {
	s := splitmix64(seed ^ splitmix64(uint64(client)<<32|uint64(round)))
	return spec.RunSpec{
		Experiments: []string{"fig8f"}, Workloads: 1,
		Instructions: 100_000, Warmup: 20_000,
		Seed: 2 + s%(1<<40), Workers: nproc,
	}
}

// smokeSpec is the job each server start is timed through.
func smokeSpec() spec.RunSpec {
	return spec.RunSpec{Experiments: []string{"fig8f"}, Workloads: 1, Instructions: 20_000, Warmup: 5_000, Workers: nproc}
}

// server is a running `melody serve` child process.
type server struct {
	cmd  *exec.Cmd
	base string
	done chan struct{}
}

// startServer starts `melody serve` on a free loopback port with a
// durable ledger in dataDir and waits until /readyz answers 200.
func startServer(bin, dataDir string, client *http.Client) (*server, error) {
	cmd := exec.Command(bin, "serve", "-addr", "127.0.0.1:0", "-data-dir", dataDir, "-debug-pprof")
	// If the benchmark dies without stopping it, the kernel stops it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting melody serve: %w", err)
	}
	s := &server{cmd: cmd, done: make(chan struct{})}
	urls := make(chan string, 1)
	go func() {
		// Read the log until the ready line names the URL, then drain it
		// so the server never blocks on a full pipe.
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if sent || !strings.Contains(line, "job service ready") {
				continue
			}
			for _, f := range strings.Fields(line) {
				if u, ok := strings.CutPrefix(f, "url="); ok {
					urls <- strings.TrimSuffix(u, "/")
					sent = true
				}
			}
		}
		_, _ = io.Copy(io.Discard, stderr)
		close(urls)
		close(s.done)
	}()
	select {
	case u, ok := <-urls:
		if !ok {
			s.stop()
			return nil, errors.New("melody serve exited before it was ready")
		}
		s.base = u
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, errors.New("melody serve did not report ready within 30 s")
	}
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := client.Get(s.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("melody serve never became ready")
		}
		time.Sleep(pollInterval)
	}
}

// stop sends SIGTERM (the server drains and exits), kills it if it has
// not exited within 20 s, and waits for it.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
	}
	_ = s.cmd.Wait()
}

// connCounter counts the TCP connections a client has open and the most
// it ever had open at once.
type connCounter struct {
	mu         sync.Mutex
	open, peak int
}

type countedConn struct {
	net.Conn
	c    *connCounter
	once sync.Once
}

func (cc *countedConn) Close() error {
	cc.once.Do(func() {
		cc.c.mu.Lock()
		cc.c.open--
		cc.c.mu.Unlock()
	})
	return cc.Conn.Close()
}

func (c *connCounter) peakOpen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.peak
}

// newLimitedClient returns an HTTP client that never holds more than
// limit connections to a host, with a counter that proves it.
func newLimitedClient(limit int) (*http.Client, *connCounter) {
	counter := &connCounter{}
	dialer := &net.Dialer{Timeout: 10 * time.Second}
	tr := &http.Transport{
		MaxConnsPerHost:     limit,
		MaxIdleConnsPerHost: limit,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			conn, err := dialer.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			counter.mu.Lock()
			counter.open++
			if counter.open > counter.peak {
				counter.peak = counter.open
			}
			counter.mu.Unlock()
			return &countedConn{Conn: conn, c: counter}, nil
		},
	}
	return &http.Client{Transport: tr, Timeout: 120 * time.Second}, counter
}

// jobStatus is the part of a GET /runs/{id} answer the client reads.
type jobStatus struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	CacheHit bool   `json:"cache_hit"`
	Error    string `json:"error"`
}

// serviceLoop is the closed-loop client population and what it measured.
type serviceLoop struct {
	base   string
	client *http.Client
	t      *tally
	tr     *tracer
	seed   uint64

	mu           sync.Mutex
	hitMs        []float64
	missS        []float64
	answered200  int
	answered202  int
	firstAddress map[int]string // client -> address of its round-0 miss
}

// known is one client's record of the specs it has run and the manifest
// bytes their miss returned.
type known struct {
	specs    []spec.RunSpec
	manifest [][]byte
}

// call times one HTTP request as a span under parent and returns the
// status code and body.
func (l *serviceLoop) call(route string, op, parent int, req *http.Request) (int, []byte, error) {
	id := l.tr.id()
	t0 := time.Now()
	resp, err := l.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	l.tr.record(id, route, op, parent, t0, time.Now(), nil)
	return resp.StatusCode, body, err
}

// submit runs one spec to its manifest: POST /runs, poll GET /runs/{id}
// until the job ends, then GET /runs/{id}/manifest. It returns the
// manifest bytes, whether the answer was a cache hit, and the time from
// POST until the manifest bytes arrived.
func (l *serviceLoop) submit(sp spec.RunSpec, op, parent int) ([]byte, bool, time.Duration, bool) {
	body, err := json.Marshal(sp)
	if err != nil {
		l.t.check(false, "encoding spec: %v", err)
		return nil, false, 0, false
	}
	start := time.Now()
	req, _ := http.NewRequest(http.MethodPost, l.base+"/runs", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	code, resp, err := l.call("serve.post", op, parent, req)
	if err != nil {
		l.t.check(false, "POST /runs: %v", err)
		return nil, false, 0, false
	}
	if !l.t.checkStatus("POST /runs", code) {
		return nil, false, 0, false
	}
	var st jobStatus
	if err := json.Unmarshal(resp, &st); err != nil {
		l.t.check(false, "POST /runs answer: %v", err)
		return nil, false, 0, false
	}
	l.mu.Lock()
	if code == http.StatusOK {
		l.answered200++
	} else {
		l.answered202++
	}
	l.mu.Unlock()
	hit := code == http.StatusOK && st.CacheHit
	for st.State == "queued" || st.State == "running" {
		time.Sleep(pollInterval)
		req, _ := http.NewRequest(http.MethodGet, l.base+"/runs/"+st.ID, nil)
		code, resp, err := l.call("serve.status", op, parent, req)
		if err != nil {
			l.t.check(false, "GET /runs/%s: %v", st.ID, err)
			return nil, hit, 0, false
		}
		if !l.t.checkStatus("GET /runs/{id}", code) {
			return nil, hit, 0, false
		}
		if err := json.Unmarshal(resp, &st); err != nil {
			l.t.check(false, "GET /runs/%s answer: %v", st.ID, err)
			return nil, hit, 0, false
		}
	}
	if !l.t.check(st.State == "done", "job %s ended %s %s", st.ID, st.State, st.Error) {
		return nil, hit, 0, false
	}
	req, _ = http.NewRequest(http.MethodGet, l.base+"/runs/"+st.ID+"/manifest", nil)
	code, manifest, err := l.call("serve.manifest", op, parent, req)
	if err != nil {
		l.t.check(false, "GET manifest: %v", err)
		return nil, hit, 0, false
	}
	if !l.t.checkStatus("GET /runs/{id}/manifest", code) {
		return nil, hit, 0, false
	}
	return manifest, hit, time.Since(start), true
}

// runMiss submits client c's new spec for round i and records its
// manifest bytes as the reference every later hit must return.
func (l *serviceLoop) runMiss(c, round int, mine *known, parent int) {
	sp := missSpec(l.seed, c, round)
	manifest, _, rtt, ok := l.submit(sp, l.tr.id(), parent)
	if !ok {
		return
	}
	m, err := melody.DecodeManifest(manifest)
	addr := ""
	if err == nil {
		addr, err = pinnedAddress(m)
	}
	if !l.t.check(err == nil, "decoding manifest: %v", err) {
		return
	}
	if round == 0 {
		l.mu.Lock()
		l.firstAddress[c] = addr
		l.mu.Unlock()
	}
	l.mu.Lock()
	l.missS = append(l.missS, rtt.Seconds())
	l.mu.Unlock()
	mine.specs = append(mine.specs, sp)
	mine.manifest = append(mine.manifest, manifest)
}

// runHits submits hitsPerRound specs the client ran before, each of
// which must come back as a cache hit with its miss's exact bytes.
func (l *serviceLoop) runHits(rng *rand.Rand, mine *known, parent int) {
	for i := 0; i < hitsPerRound && len(mine.specs) > 0; i++ {
		k := rng.Intn(len(mine.specs))
		manifest, hit, rtt, ok := l.submit(mine.specs[k], l.tr.id(), parent)
		if !ok {
			continue
		}
		l.t.check(bytes.Equal(manifest, mine.manifest[k]), "cache hit returned %d bytes that differ from its miss's %d", len(manifest), len(mine.manifest[k]))
		if hit {
			l.mu.Lock()
			l.hitMs = append(l.hitMs, float64(rtt)/1e6)
			l.mu.Unlock()
		}
	}
}

// roundSample is one round's measurement.
type roundSample struct {
	wall, hitWall, cpu, allocGB float64
	hits                        int
}

// childAlloc reads the server's cumulative heap allocation from its
// heap profile's MemStats trailer (/debug/pprof/heap?debug=1).
func childAlloc(client *http.Client, base string) (float64, error) {
	resp, err := client.Get(base + "/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, err
	}
	defer func() {
		// Drain so the connection is reused rather than redialed.
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "# TotalAlloc = "); ok {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("heap profile has no TotalAlloc line")
}

// jobHistograms reads the sum and count of the server's
// jobs/queue_wait_seconds and jobs/exec_seconds histograms from
// /metrics.
func jobHistograms(client *http.Client, base string) (map[string]float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 {
			continue
		}
		for _, h := range []string{"jobs_queue_wait_seconds", "jobs_exec_seconds"} {
			for _, part := range []string{"_sum", "_count"} {
				if strings.HasSuffix(f[0], h+part) {
					v, err := strconv.ParseFloat(f[1], 64)
					if err == nil {
						out[h+part] = v
					}
				}
			}
		}
	}
	return out, sc.Err()
}

// runService measures the run service: it starts `melody serve`
// setupRepeats times (setup_s is the median time from start to the end
// of the first small job), then
// drives the last one with a closed loop of clients in rounds until the
// time is up. In each round every client submits one new spec and waits
// for its manifest (a miss), then, once all misses are in,
// hitsPerRound specs it ran before (hits).
func runService(o options, t *tally, w io.Writer) (*report, error) {
	if o.melody == "" {
		return nil, errors.New("service-mix needs --melody, the melody binary to serve")
	}
	clients := clientCount()
	client, conns := newLimitedClient(clients)
	dataRoot := filepath.Join(o.work, "service", fmt.Sprintf("%d", os.Getpid()))
	defer os.RemoveAll(dataRoot)

	// Setup is a cold server start with a fresh ledger up to its first
	// finished job, a small smoke spec, as for the in-process workloads.
	var setups []float64
	var srv *server
	var loop *serviceLoop
	for i := 0; i < setupRepeats; i++ {
		if srv != nil {
			srv.stop()
		}
		t0 := time.Now()
		s, err := startServer(o.melody, filepath.Join(dataRoot, fmt.Sprint(i)), client)
		if err != nil {
			return nil, err
		}
		srv = s
		loop = &serviceLoop{base: srv.base, client: client, t: t, seed: o.seed, firstAddress: map[int]string{}}
		if _, _, _, ok := loop.submit(smokeSpec(), -1, -1); !ok {
			srv.stop()
			return nil, errors.New("service smoke run failed")
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer srv.stop()
	pid := srv.cmd.Process.Pid
	loop.answered200, loop.answered202 = 0, 0
	minds := make([]known, clients)
	rngs := make([]*rand.Rand, clients)
	for c := range rngs {
		rngs[c] = rand.New(rand.NewSource(int64(splitmix64(o.seed ^ uint64(c+1)))))
	}

	// runRounds drives rounds for d and returns one sample per round.
	round := 0
	runRounds := func(d time.Duration) ([]roundSample, error) {
		var out []roundSample
		start := time.Now()
		for len(out) == 0 || time.Since(start) < d {
			// Read allocation before CPU and after it at the end, so
			// the heap-profile fetches are not charged to the round.
			alloc0, err := childAlloc(client, srv.base)
			if err != nil {
				return nil, err
			}
			cpu0, err := childCPUSeconds(pid)
			if err != nil {
				return nil, err
			}
			hits0 := len(loop.hitMs)
			t0 := time.Now()
			spans := make([]int, clients)
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				spans[c] = loop.tr.id()
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					loop.runMiss(c, round, &minds[c], spans[c])
				}(c)
			}
			wg.Wait()
			tHits := time.Now()
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					loop.runHits(rngs[c], &minds[c], spans[c])
					loop.tr.record(spans[c], "client.round", round*clients+c, -1, t0, time.Now(), nil)
				}(c)
			}
			wg.Wait()
			t1 := time.Now()
			cpu1, err := childCPUSeconds(pid)
			if err != nil {
				return nil, err
			}
			alloc1, err := childAlloc(client, srv.base)
			if err != nil {
				return nil, err
			}
			out = append(out, roundSample{
				wall: t1.Sub(t0).Seconds(), hitWall: t1.Sub(tHits).Seconds(),
				cpu: cpu1 - cpu0, allocGB: (alloc1 - alloc0) / 1e9,
				hits: len(loop.hitMs) - hits0,
			})
			round++
		}
		return out, nil
	}

	r := newReport(o.workload, o.seed)
	budget := time.Duration(o.seconds) * time.Second
	var samples []roundSample
	var err error
	var rss []float64
	if !o.trace {
		sampler := sampleRSS(pid, 5*time.Millisecond)
		samples, err = runRounds(budget)
		rss = sampler.finish()
		if err != nil {
			return nil, err
		}
	} else {
		// Half the time untraced, half traced: the difference in round
		// wall time is the tracing overhead.
		plain, err := runRounds(budget / 2)
		if err != nil {
			return nil, err
		}
		h0, err := jobHistograms(client, srv.base)
		if err != nil {
			return nil, err
		}
		c200, c202 := loop.answered200, loop.answered202
		loop.tr = newTracer()
		samples, err = runRounds(budget / 2)
		if err != nil {
			return nil, err
		}
		h1, err := jobHistograms(client, srv.base)
		if err != nil {
			return nil, err
		}
		med := func(s []roundSample) float64 {
			var xs []float64
			for _, x := range s {
				xs = append(xs, x.wall)
			}
			return median(xs)
		}
		r.set("trace.overhead_s", med(samples)-med(plain), "median traced round minus median untraced round")
		r.set("runtime.gc_cpu_frac", 0, "not measured: the server does not export its GC CPU share")
		mean := func(h string) float64 {
			return ratio(h1[h+"_sum"]-h0[h+"_sum"], h1[h+"_count"]-h0[h+"_count"])
		}
		r.set("jobs.queue_wait_s", mean("jobs_queue_wait_seconds"), "mean over the traced rounds' executed jobs, from /metrics")
		r.set("jobs.exec_s", mean("jobs_exec_seconds"), "mean over the traced rounds' executed jobs, from /metrics")
		n200, n202 := loop.answered200-c200, loop.answered202-c202
		r.set("jobs.hit_ratio", ratio(float64(n200), float64(n200+n202)), "200 answers / all POST answers: %d / %d", n200, n200+n202)
	}
	for c := 0; c < clients; c++ {
		addr := loop.firstAddress[c]
		fmt.Fprintf(w, "service-mix seed %d client %d round-0 miss stripped-manifest address %s\n", o.seed, c, addr)
		want, ok, err := referenceFor(fmt.Sprintf("service-mix/client%d", c), o.seed)
		if err != nil {
			return nil, err
		}
		if ok {
			t.checkAddress(fmt.Sprintf("client %d round-0 miss", c), addr, want)
		}
	}
	peak := conns.peakOpen()
	t.check(peak <= clients, "client opened %d connections, limit %d", peak, clients)

	var walls, allocs []float64
	cpuTotal, hits, hitWall, wallTotal := 0.0, 0, 0.0, 0.0
	for _, s := range samples {
		walls = append(walls, s.wall)
		wallTotal += s.wall
		cpuTotal += s.cpu
		allocs = append(allocs, s.allocGB)
		hits += s.hits
		hitWall += s.hitWall
	}
	n := len(samples)
	if o.trace {
		spans := loop.tr.all()
		for _, route := range []string{"serve.post", "serve.status", "serve.manifest"} {
			xs := spanMs(spans, route)
			r.set(route+"_ms_p50", median(xs), "median of %d calls, timed at the client", len(xs))
			tv, tp := tail(xs)
			r.set(route+"_ms_tail", tv, "p%g of %d calls", tp, len(xs))
		}
		spanPath := filepath.Join(o.work, "trace", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
		if err := loop.tr.write(spanPath); err != nil {
			return nil, err
		}
		printLadder(w, fmt.Sprintf("%s, seed %d, %d spans in %s", o.workload, o.seed, len(spans), spanPath), ladder(spans))
		return r, nil
	}

	r.set("setup_s", median(setups), "median of %d server starts to ready, ledger open included", len(setups))
	r.set("wall_s", median(walls), "median of %d rounds (%d clients x (1 miss + %d hits))", n, clients, hitsPerRound)
	// /proc CPU times tick at 10 ms, too coarse for one round's median.
	r.set("cpu_s", cpuTotal/float64(n), "server user+sys per round, mean of %d rounds", n)
	r.set("alloc_gb", median(allocs), "server heap bytes allocated per round, median of %d rounds", n)
	rssPeak, err := peakRSSMB(pid)
	if err != nil {
		return nil, err
	}
	r.set("rss_p50_mb", median(rss), "median of %d resident-set samples of the server, 5 ms apart", len(rss))
	r.extra("peak_rss_mb", "MB", rssPeak, "server VmHWM; not bounded, it moves with collector timing")
	// The hit phases are short, so the rate is taken over all of them.
	hitRate := float64(hits) / hitWall
	r.set("work_per_s", hitRate, "cache-hit round trips per second over the %d rounds' hit phases", n)
	hv, hp := tail(loop.hitMs)
	r.extra("hit_rps", "1/s", hitRate, "same as work_per_s")
	r.extra("hit_ms_p50", "ms", median(loop.hitMs), "POST until manifest bytes, %d hits", len(loop.hitMs))
	r.extra(fmt.Sprintf("hit_ms_p%g", hp), "ms", hv, "same, %d hits", len(loop.hitMs))
	r.extra("miss_s_p50", "s", median(loop.missS), "POST until manifest bytes, %d misses", len(loop.missS))
	r.extra("hit_share", "ratio", ratio(float64(len(loop.hitMs)), float64(len(loop.hitMs)+len(loop.missS))), "hits / submissions")
	r.extra("hit_phase_share", "ratio", ratio(hitWall, wallTotal), "hit phases' share of the rounds' wall time; the miss phases take the rest")
	r.extra("peak_client_conns", "count", float64(peak), "limit %d", clients)
	r.extra("error_rate", "ratio", t.errorRate(), "failed / attempted")
	return r, nil
}
