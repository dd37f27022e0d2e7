package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/service"
)

// The serve workload: HTTP traffic over loopback to a coordinator solverd
// (the service handler with a backend.Pool of one Remote worker node),
// both nodes and the clients in this process. The request mix follows the
// "steady mixed traffic" row of cmd/perfbench/serving.go (hit90): 9 of
// every 10 solve requests repeat a fixed-seed key from a warmed pool of
// 64 (cache hits ending at the coordinator), the tenth has a fresh seed (a
// miss crossing Pool→Remote→worker). An open-loop phase sends, at a fixed
// rate, rounds of ten such blocks; in one of them the miss is a duplicated
// fresh request whose two copies coalesce, in another a small /v1/batch.
// A closed-loop phase then sends the same blocks, without the duplicate
// pair, from one client, with a batch after every servWindowBlocks. The
// rate, the duplicate pair, the batch and the single client are this
// benchmark's own assumptions, not measured traffic (README). No racing
// keys are sent: a cached racing response may differ from a fresh solve
// (README, known faults).

const (
	servHitKeys   = 64  // warmed fixed-seed keys (perfbench's servingPool)
	servHits      = 9   // hits per block: 9 of 10 solve requests (hit90)
	servBlocks    = 10  // blocks per open-loop round
	servTwinBlock = 4   // the open-loop block whose miss is the duplicate pair
	servBatchJobs = 3   // jobs of a batch request
	servRate      = 600 // open-loop requests per second
	servSetups    = 31  // set-up repetitions (the last one is measured)
	// servWindowBlocks is the number of blocks of a closed-loop window,
	// which ends with one batch.
	servWindowBlocks = 4
	// servTailQ is the tail quantile: misses are a tenth of the hit and
	// miss latencies, so p95 falls among them (the third-fastest of a
	// window's four misses).
	servTailQ = 0.95
)

// hitSpec, missSpec and batchSpec are the instances of each request kind.
// Hits and misses share a model whose solve cost barely varies with the
// seed, so the set-up's warm-up does the same work for every --seed: on
// one P, 32 solves of "costas n=13" took 38–68 ms depending on the seeds,
// 32 of "nqueens n=64" 2–4 ms.
const (
	hitSpec   = "nqueens n=64"
	missSpec  = "nqueens n=64"
	batchSpec = "nqueens n=48"
)

// node is one in-process solverd: a service handler behind an
// http.Server on a loopback port.
type node struct {
	svc  *service.Server
	srv  *http.Server
	addr string
	done chan struct{}
}

func startNode(cfg service.Config, wrap func(http.Handler) http.Handler) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	svc := service.New(cfg)
	h := svc.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	n := &node{svc: svc, srv: &http.Server{Handler: h}, addr: ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(n.done)
		_ = n.srv.Serve(ln)
	}()
	return n, nil
}

func (n *node) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = n.srv.Shutdown(ctx)
	_ = n.svc.Shutdown(ctx)
	<-n.done
}

// metrics reads the node's /metrics in process.
func (n *node) metrics() (map[string]any, error) {
	rec := httptest.NewRecorder()
	n.svc.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	var m map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		return nil, err
	}
	return m, nil
}

func metricInt(m map[string]any, key string) int64 {
	v, _ := m[key].(float64)
	return int64(v)
}

// hopBackend decorates the coordinator's Remote member (traced runs only):
// it times Remote.SolveSpec so the hop cost — call latency minus the
// worker's own reported solve time — can be separated out.
type hopBackend struct {
	backend.Backend
	tr    *tracer
	mu    sync.Mutex
	hops  []float64 // ms: latency − worker wall time
	lat   []float64 // ms: Remote.SolveSpec latency
	calls atomic.Int64
}

func (h *hopBackend) SolveSpec(ctx context.Context, spec string, opts core.Options) (core.Result, error) {
	h.calls.Add(1)
	t0 := time.Now()
	res, err := h.Backend.SolveSpec(ctx, spec, opts)
	el := time.Since(t0)
	h.tr.span("backend.Remote.SolveSpec", 0, t0, t0.Add(el))
	if err == nil {
		h.mu.Lock()
		h.hops = append(h.hops, ms(el-res.WallTime))
		h.lat = append(h.lat, ms(el))
		h.mu.Unlock()
	}
	return res, err
}

func (h *hopBackend) SolveBatch(ctx context.Context, jobs []core.BatchJob, opts core.BatchOptions) (core.BatchResult, error) {
	h.calls.Add(1)
	return h.Backend.SolveBatch(ctx, jobs, opts)
}

// gate is the benchmark's middleware on the worker node. It counts the
// solve and batch requests the worker receives, and holds a designated
// request (the first of a duplicate pair) until its twin has reached the
// coordinator, so the pair coalesces on every run, whatever the timing.
type gate struct {
	next     http.Handler
	received atomic.Int64
	mu       sync.Mutex
	holds    map[string]*hold // body marker → hold
}

type hold struct {
	arrived chan struct{}
	release chan struct{}
}

func (g *gate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost {
		g.received.Add(1)
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		g.mu.Lock()
		var h *hold
		for marker, hh := range g.holds {
			if containsField(body, marker) {
				h = hh
				delete(g.holds, marker)
				break
			}
		}
		g.mu.Unlock()
		if h != nil {
			close(h.arrived)
			<-h.release
		}
	}
	g.next.ServeHTTP(w, r)
}

// containsField reports whether body holds marker (such as "seed":42) not
// followed by another digit.
func containsField(body []byte, marker string) bool {
	for i := 0; ; {
		j := bytes.Index(body[i:], []byte(marker))
		if j < 0 {
			return false
		}
		end := i + j + len(marker)
		if end == len(body) || body[end] < '0' || body[end] > '9' {
			return true
		}
		i = end
	}
}

func (g *gate) expect(marker string) *hold {
	h := &hold{arrived: make(chan struct{}), release: make(chan struct{})}
	g.mu.Lock()
	g.holds[marker] = h
	g.mu.Unlock()
	return h
}

// twinSignal is the middleware on the coordinator that reports when the
// second request of a duplicate pair (tagged X-Bench-Twin) has arrived.
type twinSignal struct {
	next http.Handler
	mu   sync.Mutex
	wait map[string]chan struct{}
}

func (t *twinSignal) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if id := r.Header.Get("X-Bench-Twin"); id != "" {
		t.mu.Lock()
		ch := t.wait[id]
		delete(t.wait, id)
		t.mu.Unlock()
		if ch != nil {
			close(ch)
		}
	}
	t.next.ServeHTTP(w, r)
}

func (t *twinSignal) expect(id string) chan struct{} {
	ch := make(chan struct{})
	t.mu.Lock()
	t.wait[id] = ch
	t.mu.Unlock()
	return ch
}

// openRound is the open-loop phase's fixed request sequence: servBlocks
// blocks of servHits hits and one miss. In block servTwinBlock the miss is
// the duplicate pair; in the last block the batch takes the miss's place,
// so the round's solve requests are 90 hits and 10 misses (both copies of
// the pair miss).
func openRound() []reqKind {
	var out []reqKind
	for blk := 0; blk < servBlocks; blk++ {
		for h := 0; h < servHits; h++ {
			out = append(out, kindHit)
		}
		switch blk {
		case servTwinBlock:
			out = append(out, kindTwin)
		case servBlocks - 1:
			out = append(out, kindBatch)
		default:
			out = append(out, kindMiss)
		}
	}
	return out
}

// stack is one coordinator + worker deployment.
type stack struct {
	worker, coord *node
	gate          *gate
	twins         *twinSignal
	hop           *hopBackend // nil when untraced
	pool          *backend.Pool
	client        *http.Client
	base          string
}

func startStack(tr *tracer) (*stack, error) {
	par := parallelism()
	s := &stack{}
	var err error
	s.worker, err = startNode(service.Config{Workers: par}, func(h http.Handler) http.Handler {
		s.gate = &gate{next: h, holds: map[string]*hold{}}
		return s.gate
	})
	if err != nil {
		return nil, err
	}
	var member backend.Backend = backend.NewRemote(s.worker.addr, backend.RemoteConfig{})
	if tr != nil {
		s.hop = &hopBackend{Backend: member, tr: tr}
		member = s.hop
	}
	s.pool, err = backend.NewPool([]backend.Backend{member}, backend.PoolConfig{})
	if err != nil {
		s.worker.close()
		return nil, err
	}
	s.coord, err = startNode(service.Config{Workers: par, Backend: s.pool}, func(h http.Handler) http.Handler {
		s.twins = &twinSignal{next: h, wait: map[string]chan struct{}{}}
		return s.twins
	})
	if err != nil {
		s.worker.close()
		return nil, err
	}
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4 * par, MaxConnsPerHost: 0}}
	s.base = "http://" + s.coord.addr
	return s, nil
}

func (s *stack) close() {
	s.coord.close()
	s.worker.close()
	s.client.CloseIdleConnections()
}

// post sends one request and returns status and body.
func (s *stack) post(path string, body []byte, twin string) (int, []byte, error) {
	req, err := http.NewRequest("POST", s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if twin != "" {
		req.Header.Set("X-Bench-Twin", twin)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func solveBody(spec string, seed uint64) []byte {
	b, _ := json.Marshal(map[string]any{"model": spec, "options": map[string]any{"seed": seed}}) // strings and integers only
	return b
}

// checkSolveBody verifies a /v1/solve response against the model checker.
func checkSolveBody(body []byte, model string, params map[string]int) error {
	var sr service.SolveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		return fmt.Errorf("bad body %q: %v", body, err)
	}
	if !sr.Solved || !checkSolution(model, params, sr.Solution) {
		return fmt.Errorf("solution %v (solved=%v) fails the independent check", sr.Solution, sr.Solved)
	}
	return nil
}

// servInputs are the seed-derived inputs of one serve run.
type servInputs struct {
	hitSeeds []uint64
	next     atomic.Uint64 // fresh-seed counter
	base     uint64
}

func newServInputs(seed uint64) *servInputs {
	r := rng.New(seed ^ 0x7365727665)
	in := &servInputs{base: (1 + r.Uint64()%(1<<30)) << 20}
	for i := 0; i < servHitKeys; i++ {
		in.hitSeeds = append(in.hitSeeds, 1+r.Uint64()%(1<<19)) // below base: never a fresh seed
	}
	return in
}

// fresh returns a seed no earlier request of the run used.
func (in *servInputs) fresh() uint64 { return in.base + in.next.Add(1) }

// reqKind classifies a request for the latency statistics.
type reqKind int

const (
	kindHit reqKind = iota
	kindMiss
	kindTwin
	kindBatch
)

// servStats accumulates one phase's request outcomes.
type servStats struct {
	mu        sync.Mutex
	lat       map[reqKind][]float64 // raw ms
	window    map[reqKind][]int     // measurement window of each latency
	late      []float64
	hits      int64
	misses    int64
	twins     int64
	batches   int64
	attempted int64
	failed    int64
	probs     []string
	tr        *tracer
}

var kindNames = [...]string{kindHit: "serve.hit", kindMiss: "serve.miss", kindTwin: "serve.twin", kindBatch: "serve.batch"}

func newServStats(tr *tracer) *servStats {
	return &servStats{lat: map[reqKind][]float64{}, window: map[reqKind][]int{}, tr: tr}
}

func (st *servStats) record(k reqKind, window int, start time.Time, el time.Duration, err error) {
	st.tr.span(kindNames[k], 0, start, start.Add(el))
	st.mu.Lock()
	defer st.mu.Unlock()
	st.attempted++
	if err != nil {
		st.failed++
		if len(st.probs) < 10 {
			st.probs = append(st.probs, err.Error())
		}
		return
	}
	st.lat[k] = append(st.lat[k], ms(el))
	st.window[k] = append(st.window[k], window)
	switch k {
	case kindHit:
		st.hits++
	case kindMiss:
		st.misses++
	case kindTwin:
		st.twins++
	case kindBatch:
		st.batches++
	}
}

// windowStat returns the q-quantile of the hit and miss latencies of each
// measurement window, corrected by the window's calibration and raw, and
// takes the median over the windows: a burst of interference from
// outside the process spoils a few windows, not the figure.
func windowStat(st *servStats, cal *timed, q float64) (corr, raw float64) {
	per := map[int][]float64{}
	for _, k := range []reqKind{kindHit, kindMiss} {
		for i, v := range st.lat[k] {
			w := st.window[k][i]
			per[w] = append(per[w], v)
		}
	}
	var cs, rs []float64
	for w, lat := range per {
		r := quantile(lat, q)
		rs = append(rs, r)
		cs = append(cs, r*cal.factor(w))
	}
	return median(cs), median(rs)
}

// netCal is the calibration of the serve workload, whose operations are
// dominated by loopback HTTP rather than by computation: a fixed number
// of round trips over one kept-alive connection to a trivial handler of
// the benchmark's own. The host's speed states slow that path by a
// different factor than they slow the compute loop of calibrate, so the
// serve times are corrected by this one instead.
type netCal struct {
	srv    *http.Server
	client *http.Client
	url    string
	done   chan struct{}
}

// netCalTrips is the calibration's fixed work; netCalNominal its
// duration in the host's fast state (2-vCPU x86-64 host, GOMAXPROCS 1).
const (
	netCalTrips   = 16
	netCalNominal = 600 * time.Microsecond
)

func newNetCal() (*netCal, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	payload := bytes.Repeat([]byte("x"), 256)
	c := &netCal{
		srv: &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			_, _ = io.Copy(io.Discard, r.Body)
			_, _ = w.Write(payload)
		})},
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
		url:    "http://" + ln.Addr().String() + "/",
		done:   make(chan struct{}),
	}
	go func() {
		defer close(c.done)
		_ = c.srv.Serve(ln)
	}()
	return c, nil
}

// netCalTries bounds how often measure repeats a calibration that a GC
// cycle overlapped.
const netCalTries = 4

// measure makes the calibration's round trips and returns their time. The
// calibration runs on the same P and heap as the deployment, so a GC
// cycle started by the program's own garbage would slow it and be divided
// out of the program's times; a calibration that a GC cycle overlapped is
// therefore made again.
func (c *netCal) measure() time.Duration {
	var d time.Duration
	for try := 0; try < netCalTries; try++ {
		g0 := gcCycles()
		d = c.trips()
		if gcCycles() == g0 {
			break
		}
	}
	return d
}

func (c *netCal) trips() time.Duration {
	start := time.Now()
	for i := 0; i < netCalTrips; i++ {
		resp, err := c.client.Post(c.url, "application/json", bytes.NewReader(netCalBody))
		if err != nil {
			continue
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	return time.Since(start)
}

var netCalBody = []byte(`{"model":"costas n=13","options":{"seed":1}}`)

func (c *netCal) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = c.srv.Shutdown(ctx)
	<-c.done
	c.client.CloseIdleConnections()
}

func runServe(e *env) (*outcome, error) {
	o := newOutcome()
	// The whole deployment — coordinator, worker and clients — runs on
	// one P: with two, the cross-core hand-offs of loopback HTTP made the
	// same run's figures differ by 10% from one process to the next.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	in := newServInputs(e.seed)
	traced := e.tr != nil

	nc, err := newNetCal()
	if err != nil {
		return nil, err
	}
	defer nc.close()

	// Set-up: both nodes up, pool wired, hit pool warmed. Repeated; the
	// last deployment is the one measured. Set-up is loopback HTTP like the
	// requests, so each deployment is corrected by a netCal made right
	// after it.
	setup := timed{nominal: netCalNominal}
	var st *stack
	fills := map[uint64][]byte{}
	for rep := 0; rep < servSetups; rep++ {
		if st != nil {
			st.close()
		}
		runtime.GC()
		t0 := time.Now()
		st, err = startStack(e.tr)
		if err != nil {
			return nil, err
		}
		for _, s := range in.hitSeeds {
			code, body, err := st.post("/v1/solve", solveBody(hitSpec, s), "")
			if err != nil || code != http.StatusOK {
				st.close()
				return nil, fmt.Errorf("warming hit key %d: status %d err %v", s, code, err)
			}
			fills[s] = body
		}
		setup.addWith(time.Since(t0), nc.measure())
	}
	defer st.close()
	o.e2e["setup_s"] = median(setup.corrMS()) / 1000
	o.raw["setup_s"] = median(setup.rawMS()) / 1000
	for s, body := range fills {
		if err := checkSolveBody(body, "nqueens", map[string]int{"n": 64}); err != nil {
			o.problem("hit key %d: %v", s, err)
		}
	}

	// Traced runs poll the pool's breakers and the worker's queue depth.
	var breakerOpens atomic.Int64
	var queueWaits atomic.Int64
	stopPoll, pollDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(pollDone)
		if !traced {
			return
		}
		wasOpen := false
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			open := false
			for _, b := range st.pool.BreakerStates() {
				if !strings.HasPrefix(b, "closed") {
					open = true
				}
			}
			if open && !wasOpen {
				breakerOpens.Add(1)
			}
			wasOpen = open
			if m, err := st.worker.metrics(); err == nil && metricInt(m, "queue_depth") > 0 {
				queueWaits.Add(1)
			}
			select {
			case <-stopPoll:
				return
			case <-t.C:
			}
		}
	}()

	// One request of a block, checked.
	do := func(stats *servStats, k reqKind, seedOrIdx uint64, window int) {
		start := time.Now()
		var err error
		switch k {
		case kindHit:
			s := in.hitSeeds[seedOrIdx%servHitKeys]
			var code int
			var body []byte
			code, body, err = st.post("/v1/solve", solveBody(hitSpec, s), "")
			el := time.Since(start)
			if err == nil && code != http.StatusOK {
				err = fmt.Errorf("hit: status %d: %s", code, body)
			}
			if err == nil && !bytes.Equal(body, fills[s]) {
				err = fmt.Errorf("hit on seed %d: body differs from the response that filled the cache", s)
			}
			stats.record(k, window, start, el, err)
		case kindMiss:
			s := in.fresh()
			code, body, err2 := st.post("/v1/solve", solveBody(missSpec, s), "")
			el := time.Since(start)
			err = err2
			if err == nil && code != http.StatusOK {
				err = fmt.Errorf("miss: status %d: %s", code, body)
			}
			if err == nil {
				err = checkSolveBody(body, "nqueens", map[string]int{"n": 64})
			}
			stats.record(k, window, start, el, err)
		case kindBatch:
			jobs := make([]map[string]any, servBatchJobs)
			for i := range jobs {
				jobs[i] = map[string]any{"model": batchSpec, "options": map[string]any{"seed": in.fresh()}}
			}
			b, _ := json.Marshal(map[string]any{"jobs": jobs}) // strings and integers only
			code, body, err2 := st.post("/v1/batch", b, "")
			el := time.Since(start)
			err = err2
			if err == nil && code != http.StatusOK {
				err = fmt.Errorf("batch: status %d: %s", code, body)
			}
			if err == nil {
				var br service.BatchResponse
				if jerr := json.Unmarshal(body, &br); jerr != nil || len(br.Jobs) != servBatchJobs {
					err = fmt.Errorf("batch: bad body %q", body)
				} else {
					for _, j := range br.Jobs {
						if j.Result == nil || !j.Result.Solved || !checkSolution("nqueens", map[string]int{"n": 48}, j.Result.Solution) {
							err = fmt.Errorf("batch job %d: %s fails the independent check", j.Job, j.Error)
							break
						}
					}
				}
			}
			stats.record(k, window, start, el, err)
		}
	}

	// twinPair sends a duplicated fresh request: the first is held at the
	// worker until the second has reached the coordinator, so they
	// coalesce into one flight.
	var twinID atomic.Int64
	twinPair := func(stats *servStats, window int) {
		s := in.fresh()
		id := fmt.Sprint(twinID.Add(1))
		h := st.gate.expect(fmt.Sprintf(`"seed":%d`, s))
		arrivedB := st.twins.expect(id)
		body := solveBody(missSpec, s)
		type reply struct {
			code int
			body []byte
			err  error
		}
		ra, rb := make(chan reply, 1), make(chan reply, 1)
		start := time.Now()
		go func() { c, b, err := st.post("/v1/solve", body, ""); ra <- reply{c, b, err} }()
		var err error
		select {
		case <-h.arrived:
		case <-time.After(10 * time.Second):
			err = fmt.Errorf("twin %d: first request never reached the worker", s)
		}
		go func() { c, b, err := st.post("/v1/solve", body, id); rb <- reply{c, b, err} }()
		if err == nil {
			select {
			case <-arrivedB:
				// The twin is past the coordinator's cache lookup and into
				// the flight group within microseconds; leave it ample time.
				time.Sleep(5 * time.Millisecond)
			case <-time.After(10 * time.Second):
				err = fmt.Errorf("twin %d: second request never reached the coordinator", s)
			}
		}
		close(h.release)
		a, b := <-ra, <-rb
		el := time.Since(start)
		for _, r := range []reply{a, b} {
			if err == nil && r.err != nil {
				err = r.err
			}
			if err == nil && r.code != http.StatusOK {
				err = fmt.Errorf("twin: status %d: %s", r.code, r.body)
			}
		}
		if err == nil && !bytes.Equal(a.body, b.body) {
			err = fmt.Errorf("twin %d: coalesced bodies differ", s)
		}
		if err == nil {
			err = checkSolveBody(a.body, "nqueens", map[string]int{"n": 64})
		}
		stats.record(kindTwin, window, start, el, err)
		stats.mu.Lock()
		stats.attempted++ // the pair is two requests
		stats.mu.Unlock()
	}

	// Open-loop phase: whole rounds at a fixed request rate. Each round
	// is a measurement window: its requests are sent on schedule whatever
	// the responses, then, once they have all completed, one calibration
	// is made with nothing in flight and corrects the round's latencies.
	open := newServStats(e.tr)
	openCal := timed{nominal: netCalNominal}
	interval := time.Second / servRate
	var wg sync.WaitGroup
	t0 := time.Now()
	seq := uint64(0)
	round := openRound()
	for w := 0; w == 0 || time.Since(t0).Seconds() < e.seconds/2; w++ {
		w0 := time.Now()
		next := w0
		for _, k := range round {
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
			late := time.Since(next)
			open.mu.Lock()
			open.late = append(open.late, ms(late))
			open.mu.Unlock()
			next = next.Add(interval)
			wg.Add(1)
			i := seq
			seq++
			go func() {
				defer wg.Done()
				if k == kindTwin {
					twinPair(open, w)
				} else {
					do(open, k, i, w)
				}
			}()
		}
		wg.Wait()
		openCal.addWith(time.Since(w0), nc.measure())
	}

	// Closed-loop phase: one client (the deployment runs on one P). The
	// phase is cut into windows; in each, the client sends
	// servWindowBlocks blocks (without the twin pair) and a batch back to
	// back, and between windows, with no request in flight, one
	// calibration is made for the window.
	closed := newServStats(e.tr)
	win := timed{nominal: netCalNominal}
	nextHit := uint64(0)
	c0 := time.Now()
	for w := 0; time.Since(c0).Seconds() < e.seconds/2; w++ {
		w0 := time.Now()
		for b := 0; b < servWindowBlocks; b++ {
			for h := 0; h < servHits; h++ {
				do(closed, kindHit, nextHit, w)
				nextHit++
			}
			do(closed, kindMiss, 0, w)
		}
		do(closed, kindBatch, 0, w)
		win.addWith(time.Since(w0), nc.measure())
	}
	close(stopPoll)
	<-pollDone

	for _, stt := range []*servStats{open, closed} {
		o.attempted += stt.attempted
		o.failed += stt.failed
		for _, p := range stt.probs {
			o.problem("%s", p)
		}
	}

	// The coordinator's cache counters must equal the generated mix: every
	// warm-up of the measured deployment and every fresh request missed
	// (both twins missed, the second joined the first's flight), every
	// repeated key hit.
	m, err := st.coord.metrics()
	if err != nil {
		return nil, err
	}
	wantHits := open.hits + closed.hits
	wantMisses := servHitKeys + open.misses + closed.misses + 2*open.twins
	if got := metricInt(m, "cache_hits"); got != wantHits {
		o.problem("/metrics cache_hits %d, generated %d hits", got, wantHits)
	}
	if got := metricInt(m, "cache_misses"); got != wantMisses {
		o.problem("/metrics cache_misses %d, generated %d misses", got, wantMisses)
	}
	if got := metricInt(m, "coalesced_total"); got != open.twins {
		o.problem("/metrics coalesced_total %d, generated %d duplicate pairs", got, open.twins)
	}

	// End-to-end: the closed loop's hit and miss latencies and its
	// throughput. Its windows pair every request with a calibration made
	// milliseconds later, with nothing in flight, which the open loop's
	// rounds cannot: over ten processes on a 2-vCPU host the open-loop
	// miss latency spread by 19%, the closed-loop one by 2.4%. The
	// open-loop latencies are per-layer figures.
	o.e2e["op_p50_ms"], o.raw["op_p50_ms"] = windowStat(closed, &win, 0.5)
	o.e2e["op_tail_ms"], o.raw["op_tail_ms"] = windowStat(closed, &win, servTailQ)
	okClosed := float64(closed.attempted - closed.failed)
	o.e2e["ok_ops_per_s"] = okClosed / (sum(win.corrMS()) / 1000)
	o.raw["ok_ops_per_s"] = okClosed / (sum(win.rawMS()) / 1000)
	share := func(st *servStats) float64 {
		return float64(st.hits) / float64(st.hits+st.misses+2*st.twins)
	}
	fmt.Printf("[serve] open loop: %d hits, %d misses, %d duplicate pairs, %d batches (hit share of solves %.3f); "+
		"closed loop: %d hits, %d misses, %d batches (hit share %.3f)\n",
		open.hits, open.misses, open.twins, open.batches, share(open),
		closed.hits, closed.misses, closed.batches, share(closed))

	if traced {
		tr := e.tr
		corrected := func(k reqKind) []float64 {
			out := make([]float64, len(open.lat[k]))
			for i, v := range open.lat[k] {
				out[i] = v * openCal.factor(open.window[k][i])
			}
			return out
		}
		hitC, missC := corrected(kindHit), corrected(kindMiss)
		tr.set("serve.hit_p50_ms", median(hitC))
		tr.set("serve.hit_tail_ms", quantile(hitC, servTailQ))
		tr.set("serve.miss_p50_ms", median(missC))
		tr.set("serve.miss_tail_ms", quantile(missC, servTailQ))
		tr.set("loadgen.late_p50_ms", median(open.late))
		tr.set("loadgen.late_tail_ms", quantile(open.late, servTailQ))
		st.hop.mu.Lock()
		hops, lats := st.hop.hops, st.hop.lat
		st.hop.mu.Unlock()
		var fs []float64
		for i := range openCal.raw {
			fs = append(fs, openCal.factor(i))
		}
		f := median(fs)
		tr.set("backend.hop_p50_ms", median(hops)*f)
		tr.set("backend.hop_tail_ms", quantile(hops, servTailQ)*f)
		tr.set("service.miss_overhead_ms", median(missC)-median(lats)*f)
		tr.set("backend.retries", float64(st.gate.received.Load()-st.hop.calls.Load()))
		tr.set("backend.breaker_opens", float64(breakerOpens.Load()))
		tr.set("service.queue_waits", float64(queueWaits.Load()))
		wm, err := st.worker.metrics()
		if err != nil {
			return nil, err
		}
		tr.set("service.shed", float64(metricInt(m, "shed_batch_total")+metricInt(m, "shed_interactive")+
			metricInt(wm, "shed_batch_total")+metricInt(wm, "shed_interactive")))
		tr.set("service.rate_limited", float64(metricInt(m, "rate_limited_total")+metricInt(wm, "rate_limited_total")))
		tr.set("servecache.hits", float64(metricInt(m, "cache_hits")))
		tr.set("servecache.misses", float64(metricInt(m, "cache_misses")))
		tr.set("servecache.coalesced", float64(metricInt(m, "coalesced_total")))
	}
	return o, nil
}
