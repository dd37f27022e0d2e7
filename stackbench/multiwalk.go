package main

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"repro/internal/adaptive"
	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/rng"
	"repro/internal/walk"
)

// The multiwalk workload: lockstep (virtual) multi-walk solves with many
// more walkers than cores, at parallelism = the CPU count. Modes:
// single-method, portfolio and racing through core, and cooperative
// through walk.Cooperative, on a Costas and an all-interval instance.

const mwWalkers = 32

type mwClass struct {
	mode   string // single, portfolio, racing, coop
	model  string
	params map[string]int
	spec   string // run spec without seed
}

var mwClasses = func() []mwClass {
	var out []mwClass
	for _, inst := range []struct {
		model  string
		params map[string]int
		spec   string
	}{
		{"costas", map[string]int{"n": 13}, "costas n=13"},
		{"allinterval", map[string]int{"n": 14}, "allinterval n=14"},
	} {
		base := fmt.Sprintf("%s walkers=%d virtual=1", inst.spec, mwWalkers)
		out = append(out,
			mwClass{"single", inst.model, inst.params, base},
			mwClass{"portfolio", inst.model, inst.params, base + " method=portfolio"},
			mwClass{"racing", inst.model, inst.params, base + " method=racing"},
			mwClass{"coop", inst.model, inst.params, inst.spec},
		)
	}
	return out
}()

// mwSeedsPerClass is how many seeds of each class one round solves: with
// 40, the median solve of runs with five --seed values spread by 6.6%
// (2-vCPU host), much of it from the seeds drawn.
const mwSeedsPerClass = 80

// raceProbe is the racing instance of the traced run's walk/race probe.
// The round's instances solve within one or two lockstep quanta, before
// the racing allocator's first window (256 iterations) ends, so its
// reallocation path barely runs there; this one's median winner needs
// about 400 iterations, so most of its solves cross several windows. Its
// solves took 18–105 ms (eight seeds, 2-vCPU host), too slow and too
// spread to be timed operations of the round: it feeds only the per-layer
// walk.racing.* and race.* metrics.
var raceProbe = mwClass{"racing", "costas", map[string]int{"n": 15}, "costas n=15 walkers=8 virtual=1 method=racing"}

// raceProbeSeeds is how many seeds of raceProbe a traced run solves.
const raceProbeSeeds = 8

type mwJob struct {
	class *mwClass
	seed  uint64
	spec  string
}

func mwList(seed uint64) []mwJob {
	r := rng.New(seed ^ 0x6D756C7469)
	var jobs []mwJob
	for k := 0; k < mwSeedsPerClass; k++ {
		for c := range mwClasses {
			s := 1 + r.Uint64()%(1<<40)
			jobs = append(jobs, mwJob{class: &mwClasses[c], seed: s, spec: fmt.Sprintf("%s seed=%d", mwClasses[c].spec, s)})
		}
	}
	return jobs
}

// mwResult is what a multiwalk solve must reproduce at every parallelism.
type mwResult struct {
	solution   []int
	winner     int
	iterations int64
	total      int64
	method     string
	methodIt   map[string]int64
	offers     int64
	poolRst    int64
}

// coopConfig builds the cooperative run for a resolved instance: adaptive
// walkers with their own restarts disabled, so the scheduler's pool
// seeding drives every restart.
func coopConfig(inst registry.Instance, seed uint64, par int) walk.CoopConfig {
	params := adaptive.DefaultParams()
	if tuned, ok := inst.TunedParams(); ok {
		params = tuned
	}
	params.RestartLimit = -1
	return walk.CoopConfig{Config: walk.Config{
		Walkers:        mwWalkers,
		Factory:        adaptive.Factory(params),
		MasterSeed:     seed,
		MaxParallelism: par,
	}}
}

// mwSolve runs one multiwalk job at the process's parallelism.
func mwSolve(ctx context.Context, j mwJob) (mwResult, error) {
	switch j.class.mode {
	case "coop":
		inst, _, err := core.ParseRunSpec(j.spec, core.Options{})
		if err != nil {
			return mwResult{}, err
		}
		res := walk.Cooperative(ctx, inst.NewModel, coopConfig(inst, j.seed, 0), 0)
		if !res.Solved {
			return mwResult{}, fmt.Errorf("unsolved")
		}
		return mwResult{solution: res.Solution, winner: res.Winner, iterations: res.WinnerIterations,
			total: res.TotalIterations, method: "adaptive", offers: res.Offers, poolRst: res.PoolRestart}, nil
	case "racing":
		// Racing goes through core.SolveInstance on an instance detached
		// from the registry's tuning store: through core.SolveSpec every
		// racing win would steer the next racing solve of the process.
		inst, opts, err := core.ParseRunSpec(j.spec, core.Options{})
		if err != nil {
			return mwResult{}, err
		}
		return fromCore(core.SolveInstance(ctx, cleanInstance(inst), opts))
	default:
		return fromCore(core.SolveSpec(ctx, j.spec, core.Options{}))
	}
}

// cleanInstance returns inst detached from its registry's runtime tuning
// store, so a racing solve neither reads nor records process history (see
// README: racing results otherwise depend on earlier solves).
func cleanInstance(inst registry.Instance) registry.Instance {
	return registry.Instance{Spec: inst.Spec, Entry: inst.Entry, NewModel: inst.NewModel}
}

func fromCore(res core.Result, err error) (mwResult, error) {
	if err != nil {
		return mwResult{}, err
	}
	if !res.Solved {
		return mwResult{}, fmt.Errorf("unsolved")
	}
	out := mwResult{solution: res.Array, winner: res.Winner, iterations: res.Iterations,
		total: res.TotalIterations, method: res.WinnerMethod, methodIt: map[string]int64{}}
	for m, st := range res.MethodStats {
		out.methodIt[m] = st.Iterations
	}
	return out, nil
}

// mwTailQ: one round holds 640 solves, so 64 distinct solves lie beyond
// p90.
const mwTailQ = 0.90

// mwSetupEvery is how many solves separate two set-up passes.
const mwSetupEvery = 16

func runMultiwalk(e *env) (*outcome, error) {
	o := newOutcome()
	jobs := mwList(e.seed)
	specs := make([]string, len(jobs))
	for i, j := range jobs {
		specs[i] = j.spec
	}
	setup := newSpecSetup(specs, o)
	par := parallelism()
	ctx := context.Background()

	// Reference pass at parallelism 1: every later solve, at parallelism
	// par, must reproduce it exactly.
	prev := runtime.GOMAXPROCS(1)
	ref := make([]mwResult, len(jobs))
	refOK := make([]bool, len(jobs))
	for i, j := range jobs {
		r, err := mwSolve(ctx, j)
		if err != nil {
			o.problem("reference %s (%s): %v", j.spec, j.class.mode, err)
			continue
		}
		ref[i], refOK[i] = r, true
	}
	runtime.GOMAXPROCS(par)
	defer runtime.GOMAXPROCS(prev)

	var t timed
	var ok int64
	layer := newWalkLayer()
	start := time.Now()
	for round := 0; round == 0 || time.Since(start).Seconds() < e.seconds; round++ {
		for i, j := range jobs {
			if i%mwSetupEvery == mwSetupEvery-1 {
				setup.pass()
			}
			o.attempted++
			c0 := cpuTime()
			t0 := time.Now()
			r, err := mwSolve(ctx, j)
			el := time.Since(t0)
			t.addCPU(cpuTime() - c0)
			switch {
			case err != nil:
				o.failed++
				o.problem("%s (%s): %v", j.spec, j.class.mode, err)
				continue
			case !checkSolution(j.class.model, j.class.params, r.solution):
				o.failed++
				o.problem("%s (%s): solution %v fails the independent check", j.spec, j.class.mode, r.solution)
				continue
			case !refOK[i] || !reflect.DeepEqual(r, ref[i]):
				o.failed++
				o.problem("%s (%s): result at parallelism %d differs from parallelism 1", j.spec, j.class.mode, par)
				continue
			}
			ok++
			if e.tr != nil && round == 0 {
				id := e.tr.span("multiwalk."+j.class.mode, 0, t0, t0.Add(el))
				// walk.racing.* and race.* come from the racing probe.
				if j.class.mode != "racing" {
					layer.observe(e.tr, id, j, r, t.last(), par, o)
				}
			}
		}
	}
	opMetrics(o, &t, mwTailQ, ok)
	setup.report()
	if e.tr != nil {
		raceProbeRun(ctx, e, layer, par, o)
		layer.report(e.tr)
	}
	return o, nil
}

// raceProbeRun solves raceProbeSeeds seeds of raceProbe, checks them and
// replays them below core for the walk/race layer figures.
func raceProbeRun(ctx context.Context, e *env, layer *walkLayer, par int, o *outcome) {
	r := rng.New(e.seed ^ 0x72616365)
	for k := 0; k < raceProbeSeeds; k++ {
		s := 1 + r.Uint64()%(1<<40)
		j := mwJob{class: &raceProbe, seed: s, spec: fmt.Sprintf("%s seed=%d", raceProbe.spec, s)}
		o.attempted++
		t0 := time.Now()
		res, err := mwSolve(ctx, j)
		el := time.Since(t0)
		f := float64(calNominal) / float64(calibrate())
		if err == nil && !checkSolution(j.class.model, j.class.params, res.solution) {
			err = fmt.Errorf("solution %v fails the independent check", res.solution)
		}
		if err != nil {
			o.failed++
			o.problem("race probe %s: %v", j.spec, err)
			continue
		}
		id := e.tr.span("multiwalk.race_probe", 0, t0, t0.Add(el))
		layer.observe(e.tr, id, j, res, f, par, o)
	}
}

// walkLayer gathers the walk/race layer figures of the traced multiwalk
// pass: each solved job is replayed below core with Step-timing factories.
type walkLayer struct {
	eff, self, rounds map[string][]float64
	share             []float64
	offers, poolRst   []float64
	windows           []float64 // racing windows observed per solve
	migrations        []float64 // walkers moved to another arm per solve
}

// countingAllocator decorates a racing allocator, counting the windows it
// observes and the walkers its assignments move to another arm.
type countingAllocator struct {
	walk.Allocator
	windows, migrations int
	last                []int
}

func (a *countingAllocator) Observe(w int, obs []walk.WalkerObs) {
	a.windows++
	a.Allocator.Observe(w, obs)
}

func (a *countingAllocator) Assign(w int) []int {
	next := a.Allocator.Assign(w)
	for i := range next {
		if a.last != nil && next[i] != a.last[i] {
			a.migrations++
		}
	}
	a.last = append(a.last[:0], next...)
	return next
}

func newWalkLayer() *walkLayer {
	return &walkLayer{eff: map[string][]float64{}, self: map[string][]float64{}, rounds: map[string][]float64{}}
}

func (l *walkLayer) observe(tr *tracer, op int, j mwJob, r mwResult, f float64, par int, o *outcome) {
	mode := j.class.mode
	inst, opts, err := core.ParseRunSpec(j.spec, core.Options{})
	if err != nil {
		o.problem("replay %s: %v", j.spec, err)
		return
	}
	var clock stepClock
	var wres walk.Result
	walkers := mwWalkers
	w0 := time.Now()
	if mode == "coop" {
		cfg := coopConfig(inst, j.seed, par)
		cfg.Factory = timeFactory(cfg.Factory, &clock)
		cres := walk.Cooperative(context.Background(), inst.NewModel, cfg, 0)
		wres = cres.Result
		l.offers = append(l.offers, float64(cres.Offers))
		l.poolRst = append(l.poolRst, float64(cres.PoolRestart))
	} else {
		cfg, err := core.WalkConfigFor(inst, opts)
		if err != nil {
			o.problem("replay %s: %v", j.spec, err)
			return
		}
		cfg.MaxParallelism = par
		var alloc *countingAllocator
		if cfg.Allocator != nil {
			alloc = &countingAllocator{Allocator: cfg.Allocator}
			cfg.Allocator = alloc
		}
		wres = walk.Virtual(context.Background(), inst.NewModel, timeConfig(cfg, &clock), 0)
		if alloc != nil {
			l.windows = append(l.windows, float64(alloc.windows))
			l.migrations = append(l.migrations, float64(alloc.migrations))
		}
		walkers = cfg.Walkers
	}
	wall := time.Since(w0)
	if mode == "coop" {
		tr.span("walk.Cooperative", op, w0, w0.Add(wall))
	} else {
		tr.span("walk.Virtual", op, w0, w0.Add(wall))
	}
	if wres.TotalIterations != r.total || wres.WinnerIterations != r.iterations {
		o.problem("replay %s (%s): walk did %d/%d iterations, the solve %d/%d",
			j.spec, mode, wres.WinnerIterations, wres.TotalIterations, r.iterations, r.total)
	}
	steps := float64(clock.total())
	l.eff[mode] = append(l.eff[mode], steps/(float64(wall)*float64(par)))
	l.self[mode] = append(l.self[mode], (float64(wall)-steps/float64(par))*f/1e6)
	// Every walker takes one Step (one lockstep quantum) per round.
	l.rounds[mode] = append(l.rounds[mode], float64(clock.steps())/float64(walkers))
	if mode == "racing" && r.total > 0 {
		l.share = append(l.share, float64(r.methodIt[r.method])/float64(r.total))
	}
}

func (l *walkLayer) report(tr *tracer) {
	for _, m := range walkModes {
		tr.set("walk."+m+".efficiency", median(l.eff[m]))
		tr.set("walk."+m+".self_ms", median(l.self[m]))
		tr.set("walk."+m+".rounds", mean(l.rounds[m]))
	}
	tr.set("race.winner_share", mean(l.share))
	tr.set("race.windows_per_solve", mean(l.windows))
	tr.set("race.migrations_per_solve", mean(l.migrations))
	tr.set("walk.coop.offers", mean(l.offers))
	tr.set("walk.coop.pool_restarts", mean(l.poolRst))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}
