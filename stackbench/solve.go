package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/walk"
)

// The solve workload: sequential single-walker solves through
// core.SolveSpec, each run to completion, over a fixed list of
// (spec, method, seed) made from --seed. The list covers the Costas model
// under all four methods (the ScanModel probe path for adaptive) and the
// three other registered permutation models (plain Model probes).

// solveClass is one (instance, method) family of the solve list.
type solveClass struct {
	spec   string // run spec without its seed
	method string // engine method, for the per-layer metrics
	model  string
	params map[string]int
}

var solveClasses = []solveClass{
	{"costas n=13", "adaptive", "costas", map[string]int{"n": 13}},
	{"costas n=12 method=tabu", "tabu", "costas", map[string]int{"n": 12}},
	{"costas n=11 method=hillclimb", "hillclimb", "costas", map[string]int{"n": 11}},
	{"costas n=11 method=dialectic", "dialectic", "costas", map[string]int{"n": 11}},
	{"nqueens n=128", "adaptive", "nqueens", map[string]int{"n": 128}},
	{"allinterval n=14", "adaptive", "allinterval", map[string]int{"n": 14}},
	{"magicsquare k=4", "adaptive", "magicsquare", map[string]int{"k": 4}},
}

// solveSeedsPerClass is how many seeds of each class one round solves.
// Solve times are heavy-tailed, so a round's total time moves with the
// seeds drawn: with 600 seeds a class, runs with ten --seed values spread
// by 7–8% in throughput and tail (2-vCPU host). Doubling the seeds
// shrinks the part of that spread that comes from the seeds by √2.
const solveSeedsPerClass = 1200

type solveJob struct {
	class *solveClass
	spec  string
}

// solveList builds the round's job list: for each seed index, one job of
// every class, with per-job seeds drawn from --seed.
func solveList(seed uint64) []solveJob {
	r := rng.New(seed ^ 0x736F6C7665)
	var jobs []solveJob
	for k := 0; k < solveSeedsPerClass; k++ {
		for c := range solveClasses {
			s := 1 + r.Uint64()%(1<<40)
			jobs = append(jobs, solveJob{class: &solveClasses[c], spec: fmt.Sprintf("%s seed=%d", solveClasses[c].spec, s)})
		}
	}
	return jobs
}

// specSetup is the set-up of a spec list: parse each spec and resolve its
// instance through the registry, building one model each, over the first
// setupSpecs specs of the list. One pass lasts under a millisecond, so a
// figure taken at process start moves with the host's speed state of that
// moment (over ten processes the median of 51 passes made there spread by
// 13% corrected, 9% raw). Passes are therefore sampled through the whole
// run: setupFirst before the first operation and one more every few
// operations, each after a forced GC so every pass starts from a
// collected heap; the speed-corrected mean of their middle half is
// reported.
type specSetup struct {
	sample []string
	o      *outcome
	t      timed
}

const setupFirst, setupSpecs = 21, 320

func newSpecSetup(specs []string, o *outcome) *specSetup {
	s := &specSetup{sample: specs, o: o}
	if len(s.sample) > setupSpecs {
		s.sample = s.sample[:setupSpecs]
	}
	for i := 0; i < setupFirst; i++ {
		s.pass()
	}
	return s
}

// pass times one set-up pass over the sample.
func (s *specSetup) pass() {
	runtime.GC()
	c0 := cpuTime()
	for _, spec := range s.sample {
		inst, _, err := core.ParseRunSpec(spec, core.Options{})
		if err != nil {
			s.o.problem("set-up: %s: %v", spec, err)
			return
		}
		if inst.NewModel().Size() <= 0 {
			s.o.problem("set-up: %s built an empty model", spec)
		}
	}
	s.t.addCPU(cpuTime() - c0)
}

func (s *specSetup) report() {
	s.o.e2e["setup_s"] = midMean(s.t.corrMS()) / 1000
	s.o.raw["setup_s"] = midMean(s.t.rawMS()) / 1000
}

// opMetrics fills the per-operation end-to-end metrics from a series of
// sequential operation times: p50, the tail quantile, and throughput over
// the summed operation time.
func opMetrics(o *outcome, t *timed, tailQ float64, ok int64) {
	corr, raw := t.corrMS(), t.rawMS()
	o.e2e["op_p50_ms"], o.raw["op_p50_ms"] = median(corr), median(raw)
	o.e2e["op_tail_ms"], o.raw["op_tail_ms"] = quantile(corr, tailQ), quantile(raw, tailQ)
	o.e2e["ok_ops_per_s"] = float64(ok) / (sum(corr) / 1000)
	o.raw["ok_ops_per_s"] = float64(ok) / (sum(raw) / 1000)
}

// solveTailQ is the tail quantile of the solve workload's op_tail_ms: one
// round holds 8400 jobs, so 840 distinct jobs lie beyond p90.
const solveTailQ = 0.90

// solveSetupEvery is how many solves separate two set-up passes.
const solveSetupEvery = 64

func runSolve(e *env) (*outcome, error) {
	o := newOutcome()
	jobs := solveList(e.seed)
	specs := make([]string, len(jobs))
	for i, j := range jobs {
		specs[i] = j.spec
	}
	setup := newSpecSetup(specs, o)

	ctx := context.Background()
	var t timed
	var ok int64
	var firstTotal int64 = -1
	var ms0, ms1 runtime.MemStats
	layer := newSolveLayer()
	start := time.Now()
	for round := 0; round == 0 || time.Since(start).Seconds() < e.seconds; round++ {
		var total int64
		for i, j := range jobs {
			if i%solveSetupEvery == solveSetupEvery-1 {
				setup.pass()
			}
			o.attempted++
			if e.tr != nil {
				runtime.ReadMemStats(&ms0)
			}
			c0 := cpuTime()
			t0 := time.Now()
			res, err := core.SolveSpec(ctx, j.spec, core.Options{})
			el := time.Since(t0)
			cpu := cpuTime() - c0
			if e.tr != nil {
				runtime.ReadMemStats(&ms1)
			}
			t.addCPU(cpu)
			if err != nil || !res.Solved {
				o.failed++
				o.problem("%s: solved=%v err=%v", j.spec, res.Solved, err)
				continue
			}
			if !checkSolution(j.class.model, j.class.params, res.Array) {
				o.failed++
				o.problem("%s: solution %v fails the independent check", j.spec, res.Array)
				continue
			}
			ok++
			total += res.TotalIterations
			if e.tr != nil && round == 0 {
				id := e.tr.span("core.SolveSpec", 0, t0, t0.Add(el))
				layer.replay(e.tr, id, j, res, el, t.last(), ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc, o)
			}
		}
		if firstTotal < 0 {
			firstTotal = total
			fmt.Printf("[solve] round iterations %d over %d jobs\n", total, len(jobs))
		} else if total != firstTotal {
			o.problem("round %d did %d iterations, round 0 did %d (same jobs, same seeds)", round, total, firstTotal)
		}
	}
	opMetrics(o, &t, solveTailQ, ok)
	setup.report()
	if e.tr != nil {
		layer.report(e.tr)
	}
	return o, nil
}

// solveLayer gathers the engine and core/registry layer figures of the
// traced solve pass.
type solveLayer struct {
	stepNS   map[string]float64 // per engine key: corrected Step time
	iters    map[string]int64
	solves   map[string]int64
	restarts map[string]int64
	evals    map[string]int64
	overhead []float64 // µs, SolveSpec − walk, per job
	allocs   []float64
	bytes    []float64
	buildUS  []float64
}

func newSolveLayer() *solveLayer {
	return &solveLayer{
		stepNS: map[string]float64{}, iters: map[string]int64{}, solves: map[string]int64{},
		restarts: map[string]int64{}, evals: map[string]int64{},
	}
}

// engineKey names the engine metric a job feeds: the method on Costas,
// "adaptive.<model>" for the other models.
func engineKey(c *solveClass) string {
	if c.model == "costas" {
		return c.method
	}
	return c.method + "." + c.model
}

// replay re-runs one solved job below core — registry resolve, then
// walk.Parallel with a Step-timing factory — and records the layer
// figures. Sequential solves are deterministic, so the replay does the
// very search SolveSpec did; its iteration count is checked against it.
func (l *solveLayer) replay(tr *tracer, op int, j solveJob, res core.Result, solveTime time.Duration, f float64, mallocs, bytes uint64, o *outcome) {
	t0 := time.Now()
	inst, opts, err := core.ParseRunSpec(j.spec, core.Options{})
	build := time.Since(t0)
	tr.span("core.ParseRunSpec", op, t0, t0.Add(build))
	if err != nil {
		o.problem("replay %s: %v", j.spec, err)
		return
	}
	cfg, err := core.WalkConfigFor(inst, opts)
	if err != nil {
		o.problem("replay %s: %v", j.spec, err)
		return
	}
	var clock stepClock
	w0 := time.Now()
	wres := walk.Parallel(context.Background(), inst.NewModel, timeConfig(cfg, &clock))
	walkTime := time.Since(w0)
	tr.span("walk.Parallel", op, w0, w0.Add(walkTime))
	if wres.TotalIterations != res.TotalIterations {
		o.problem("replay %s: walk did %d iterations, SolveSpec %d", j.spec, wres.TotalIterations, res.TotalIterations)
	}
	key := engineKey(j.class)
	l.stepNS[key] += float64(clock.total()) * f
	l.iters[key] += wres.TotalIterations
	l.solves[key]++
	for _, s := range wres.Stats {
		l.restarts[key] += s.Restarts
		l.evals[key] += s.Evaluations
	}
	l.overhead = append(l.overhead, float64(solveTime-walkTime)*f/1000)
	l.allocs = append(l.allocs, float64(mallocs))
	l.bytes = append(l.bytes, float64(bytes))
	l.buildUS = append(l.buildUS, float64(build)*f/1000)
}

func (l *solveLayer) report(tr *tracer) {
	for key, ns := range l.stepNS {
		tr.set("engine."+key+".iter_ns", ns/float64(l.iters[key]))
	}
	for _, m := range costasMethods {
		if n := l.solves[m]; n > 0 {
			tr.set("engine."+m+".iters_per_solve", float64(l.iters[m])/float64(n))
			tr.set("engine."+m+".restarts_per_solve", float64(l.restarts[m])/float64(n))
			tr.set("engine."+m+".evals_per_iter", float64(l.evals[m])/float64(l.iters[m]))
		}
	}
	tr.set("core.overhead_us", median(l.overhead))
	tr.set("core.allocs_per_solve", median(l.allocs))
	tr.set("core.bytes_per_solve", median(l.bytes))
	tr.set("registry.build_us", median(l.buildUS))
}
