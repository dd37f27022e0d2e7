package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"sync"
	"time"

	"repro/internal/costas"
	"repro/internal/csp"
	"repro/internal/rng"
	"repro/internal/walk"
)

// The traced run measures each layer from outside, by timing calls into
// its public functions. Observations are kept in memory and reduced to
// the per-layer metrics when the run ends.

// perLayerMetrics is every per-layer metric a traced run prints, in print
// order, with its unit.
var perLayerMetrics = func() []struct{ name, unit string } {
	var out []struct{ name, unit string }
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, struct{ name, unit string }{n, unit})
		}
	}
	add("ns", "costas.scan_swaps_ns", "costas.swap_delta_ns", "costas.commit_swap_ns", "costas.bind_ns")
	for _, m := range costasMethods {
		add("ns", "engine."+m+".iter_ns")
	}
	add("ns", "engine.adaptive.nqueens.iter_ns", "engine.adaptive.allinterval.iter_ns", "engine.adaptive.magicsquare.iter_ns")
	for _, m := range costasMethods {
		add("count", "engine."+m+".iters_per_solve", "engine."+m+".restarts_per_solve", "engine."+m+".evals_per_iter")
	}
	for _, m := range walkModes {
		add("ratio", "walk."+m+".efficiency")
		add("ms", "walk."+m+".self_ms")
		add("count", "walk."+m+".rounds")
	}
	add("ratio", "race.winner_share")
	add("count", "race.windows_per_solve", "race.migrations_per_solve")
	add("count", "walk.coop.offers", "walk.coop.pool_restarts")
	add("us", "core.overhead_us")
	add("count", "core.allocs_per_solve")
	add("B", "core.bytes_per_solve")
	add("us", "registry.build_us")
	add("ms", "backend.hop_p50_ms", "backend.hop_tail_ms")
	add("count", "backend.retries", "backend.breaker_opens")
	add("ms", "service.miss_overhead_ms")
	add("count", "service.queue_waits", "service.shed", "service.rate_limited")
	add("count", "servecache.hits", "servecache.misses", "servecache.coalesced")
	add("ms", "serve.hit_p50_ms", "serve.hit_tail_ms", "serve.miss_p50_ms", "serve.miss_tail_ms")
	add("ms", "loadgen.late_p50_ms", "loadgen.late_tail_ms")
	add("ms", "campaign.run_epoch_ms", "campaign.heartbeat_ms", "campaign.rebuild_ms")
	add("B", "campaign.checkpoint_bytes", "campaign.log_bytes_per_epoch")
	add("count", "campaign.iters_per_epoch")
	add("1/s", "campaign.iters_per_s")
	add("count", "runtime.gc_cycles")
	add("ms", "runtime.gc_pause_ms")
	add("B", "runtime.heap_peak_bytes")
	for _, m := range e2eMetrics {
		add("%", "trace."+m.name+".overhead_pct")
	}
	return out
}()

var (
	costasMethods = []string{"adaptive", "tabu", "hillclimb", "dialectic"}
	walkModes     = []string{"single", "portfolio", "racing", "coop"}
)

// tracer collects the traced run's spans and per-layer values.
type tracer struct {
	mu     sync.Mutex
	values map[string]float64
	spans  []span
	gcBase metricsSnapshot
	heap   peakSampler
}

// span is one timed call into a layer. Parent is the id of the span that
// caused it (0 for none); ids start at 1.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run started
	End    int64  `json:"end_ns"`
}

// runStart anchors span times.
var runStart = time.Now()

// span records a call into a layer and returns its id. A nil tracer
// records nothing, so untraced code paths call it unconditionally.
func (t *tracer) span(name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(runStart)), End: int64(end.Sub(runStart))})
	return id
}

// writeSpans writes the spans, one JSON object a line, to path.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	n := len(t.spans)
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	fmt.Printf("trace: %d spans written to %s\n", n, path)
	return f.Close()
}

func newTracer() *tracer {
	t := &tracer{values: map[string]float64{}, gcBase: readMetrics()}
	t.heap.start()
	return t
}

// set records a per-layer metric.
func (t *tracer) set(name string, v float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.values[name] = v
}

// stepClock accumulates the time spent inside Engine.Step calls of the
// engines one factory built, and counts the calls.
type stepClock struct {
	mu    sync.Mutex
	spent time.Duration
	calls int64
}

func (c *stepClock) add(d time.Duration) {
	c.mu.Lock()
	c.spent += d
	c.calls++
	c.mu.Unlock()
}

func (c *stepClock) total() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.spent
}

func (c *stepClock) steps() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls
}

// timedEngine decorates an engine, timing every Step. It forwards
// RestartFrom so the schedulers that re-arm engines (racing, cooperative)
// see the same capability as on the undecorated engine.
type timedEngine struct {
	csp.Engine
	clock *stepClock
}

func (e timedEngine) Step(quantum int) bool {
	start := time.Now()
	ok := e.Engine.Step(quantum)
	e.clock.add(time.Since(start))
	return ok
}

func (e timedEngine) RestartFrom(cfg []int) { e.Engine.(csp.Restartable).RestartFrom(cfg) }

// timeFactory wraps a csp.Factory so its engines' Step calls are timed.
func timeFactory(f csp.Factory, clock *stepClock) csp.Factory {
	return func(m csp.Model, seed uint64) csp.Engine {
		return timedEngine{Engine: f(m, seed), clock: clock}
	}
}

// timeConfig decorates every factory of a walk configuration.
func timeConfig(cfg walk.Config, clock *stepClock) walk.Config {
	if cfg.Factory != nil {
		cfg.Factory = timeFactory(cfg.Factory, clock)
	}
	if len(cfg.Portfolio) > 0 {
		p := make([]csp.Factory, len(cfg.Portfolio))
		for i, f := range cfg.Portfolio {
			p[i] = timeFactory(f, clock)
		}
		cfg.Portfolio = p
	}
	return cfg
}

// kernelReplay times the Costas kernel calls (Bind, ScanSwaps, SwapDelta,
// CommitSwap) on configurations drawn from the workloads' instance orders,
// each call batch paired with a calibration.
func kernelReplay(tr *tracer, seed uint64) {
	r := rng.New(seed ^ 0x6B65726E656C)
	var bind, scan, delta, commit []float64
	for _, n := range []int{11, 12, 13, 14, 26} {
		m := costas.New(n, costas.Options{})
		deltas := make([]int, n)
		cfg := make([]int, n)
		for c := 0; c < 40; c++ {
			r.PermInto(cfg)
			const reps = 64

			start := time.Now()
			for k := 0; k < reps; k++ {
				m.Bind(cfg)
			}
			el := time.Since(start)
			f := float64(calNominal) / float64(calibrate())
			bind = append(bind, float64(el)*f/reps)

			start = time.Now()
			for k := 0; k < reps; k++ {
				m.ScanSwaps(k%n, deltas)
			}
			el = time.Since(start)
			scan = append(scan, float64(el)*f/reps)

			pairs := make([][2]int, reps)
			for k := range pairs {
				i, j := r.Intn(n), r.Intn(n-1)
				if j >= i {
					j++
				}
				pairs[k] = [2]int{i, j}
			}
			start = time.Now()
			for _, p := range pairs {
				calSink += m.SwapDelta(p[0], p[1])
			}
			el = time.Since(start)
			delta = append(delta, float64(el)*f/reps)

			// Commit each swap and its inverse, so the configuration ends
			// where it started.
			start = time.Now()
			for _, p := range pairs[:reps/2] {
				d := m.SwapDelta(p[0], p[1])
				m.CommitSwap(p[0], p[1], d)
				d = m.SwapDelta(p[0], p[1])
				m.CommitSwap(p[0], p[1], d)
			}
			el = time.Since(start)
			// Each commit above carries one SwapDelta probe; subtract it.
			commit = append(commit, float64(el)*f/reps-delta[len(delta)-1])
		}
	}
	tr.set("costas.bind_ns", median(bind))
	tr.set("costas.scan_swaps_ns", median(scan))
	tr.set("costas.swap_delta_ns", median(delta))
	tr.set("costas.commit_swap_ns", median(commit))
}

// metricsSnapshot is the slice of runtime/metrics the traced run reports.
type metricsSnapshot struct {
	gcCycles  uint64
	pauseSecs float64
}

func readMetrics() metricsSnapshot {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/sched/pauses/total/gc:seconds"}}
	metrics.Read(s)
	var out metricsSnapshot
	if s[0].Value.Kind() == metrics.KindUint64 {
		out.gcCycles = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[1].Value.Float64Histogram()
		for i, c := range h.Counts {
			// Bucket i spans [Buckets[i], Buckets[i+1]); take its lower
			// edge (the first may be -Inf).
			lo := h.Buckets[i]
			if lo < 0 || lo != lo || lo > 1e9 {
				lo = 0
			}
			out.pauseSecs += float64(c) * lo
		}
	}
	return out
}

// readRuntime records the Go runtime's GC and heap figures for the whole
// traced run.
func (t *tracer) readRuntime() {
	t.heap.halt()
	now := readMetrics()
	t.set("runtime.gc_cycles", float64(now.gcCycles-t.gcBase.gcCycles))
	t.set("runtime.gc_pause_ms", (now.pauseSecs-t.gcBase.pauseSecs)*1000)
	t.set("runtime.heap_peak_bytes", float64(t.heap.load()))
}

// peakSampler tracks the largest live heap seen while it runs.
type peakSampler struct {
	mu   sync.Mutex
	peak uint64
	stop chan struct{}
	done chan struct{}
}

// start samples /memory/classes/heap/objects:bytes every 10 ms until
// stopped.
func (p *peakSampler) start() {
	p.stop = make(chan struct{})
	p.done = make(chan struct{})
	go func() {
		defer close(p.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 {
				p.mu.Lock()
				if v := s[0].Value.Uint64(); v > p.peak {
					p.peak = v
				}
				p.mu.Unlock()
			}
			select {
			case <-p.stop:
				return
			case <-t.C:
			}
		}
	}()
}

func (p *peakSampler) halt() {
	if p.stop != nil {
		close(p.stop)
		<-p.done
		p.stop = nil
	}
}

func (p *peakSampler) load() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.peak
}
