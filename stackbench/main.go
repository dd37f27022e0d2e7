// Command stackbench is the repository's end-to-end benchmark: one
// workload per process, every output checked by code independent of the
// program, every time speed-corrected (see calib.go).
//
//	stackbench --workload solve --seed 1 --seconds 20 --trace 0
//	stackbench spread --workload serve --repeat 5 --seconds 20
//
// The last line of a measurement run is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end metrics; with --trace 1 they are the per-layer metrics
// (see README.md), measured in the same process after an untraced and a
// traced pass of the workload, whose difference is printed too.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// workload is one measurement: it runs for about seconds (always in whole
// rounds of its operation list), checks every output, and reports.
type workload func(env *env) (*outcome, error)

// env is what a workload run gets: its inputs' seed, its time budget, a
// private scratch directory, and the tracer (nil when untraced).
type env struct {
	seed    uint64
	seconds float64
	dir     string
	tr      *tracer
}

// outcome is a workload run's report.
type outcome struct {
	e2e       map[string]float64 // speed-corrected end-to-end metrics
	raw       map[string]float64 // the same metrics from raw wall-clock times
	attempted int64
	failed    int64
	problems  []string // failed checks; any makes the run incorrect
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, raw: map[string]float64{}}
}

func (o *outcome) problem(format string, args ...any) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]workload{
	"solve":     runSolve,
	"multiwalk": runMultiwalk,
	"serve":     runServe,
	"campaign":  runCampaign,
}

// workloadOrder fixes the order in which a traced run probes the layers
// of the other workloads.
var workloadOrder = []string{"solve", "multiwalk", "serve", "campaign"}

// e2eMetrics lists the end-to-end metrics and their units, in print order.
var e2eMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"ok_ops_per_s", "1/s"},
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "spread" {
		os.Exit(spreadMain(os.Args[2:]))
	}
	fs := flag.NewFlagSet("stackbench", flag.ExitOnError)
	name := fs.String("workload", "", "workload: solve, multiwalk, serve or campaign")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Float64("seconds", 20, "how long the measurement runs")
	trace := fs.Int("trace", 0, "1 = print the per-layer metrics instead of the end-to-end ones")
	_ = fs.Parse(os.Args[1:])
	if _, ok := workloads[*name]; !ok {
		fmt.Fprintf(os.Stderr, "stackbench: unknown workload %q (want %s)\n", *name, strings.Join(workloadOrder, ", "))
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "stackbench: --seconds must be positive")
		os.Exit(2)
	}
	res, err := measure(*name, *seed, *seconds, *trace != 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stackbench:", err)
		os.Exit(1)
	}
	line, _ := json.Marshal(res) // finite numbers only: put replaced the rest
	fmt.Println(string(line))
}

// measure runs one workload (untraced), or, with trace, the untraced and
// traced passes plus the layer probes, and assembles the result line.
func measure(name string, seed uint64, seconds float64, trace bool) (resultJSON, error) {
	dir, err := scratchDir()
	if err != nil {
		return resultJSON{}, err
	}
	defer os.RemoveAll(dir)

	res := resultJSON{Correct: true, Metrics: map[string]metricJSON{}}
	steal0, ok0 := readSteal()
	defer func() {
		if steal1, ok1 := readSteal(); ok0 && ok1 {
			fmt.Printf("host: %.1f%% of CPU time stolen by the hypervisor during the run\n", steal1.share(steal0)*100)
		}
	}()
	account := func(label string, o *outcome) {
		res.Attempted += o.attempted
		res.Failed += o.failed
		for _, p := range o.problems {
			fmt.Printf("CHECK FAILED [%s]: %s\n", label, p)
			res.Correct = false
		}
	}
	runOne := func(w string, secs float64, tr *tracer, label string) (*outcome, error) {
		sub := filepath.Join(dir, fmt.Sprintf("%s-%d", w, time.Now().UnixNano()))
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, err
		}
		o, err := workloads[w](&env{seed: seed, seconds: secs, dir: sub, tr: tr})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w, err)
		}
		account(label, o)
		printOutcome(label, o)
		return o, nil
	}

	if !trace {
		o, err := runOne(name, seconds, nil, name)
		if err != nil {
			return res, err
		}
		for _, m := range e2eMetrics {
			res.put(m.name, m.unit, o.e2e[m.name])
		}
		return res, nil
	}

	half := seconds / 2
	plain, err := runOne(name, half, nil, name+" untraced")
	if err != nil {
		return res, err
	}
	tr := newTracer()
	traced, err := runOne(name, half, tr, name+" traced")
	if err != nil {
		return res, err
	}
	for _, m := range e2eMetrics {
		a, b := plain.e2e[m.name], traced.e2e[m.name]
		pct := 0.0
		if a != 0 {
			pct = (b - a) / a * 100
		}
		fmt.Printf("trace overhead %-14s untraced %12.6g  traced %12.6g  %+6.1f%%\n", m.name, a, b, pct)
		tr.set("trace."+m.name+".overhead_pct", pct)
	}
	// Layer probes: the other workloads' layers, traced, in a short run.
	for _, w := range workloadOrder {
		if w == name {
			continue
		}
		if _, err := runOne(w, probeSeconds, tr, w+" probe"); err != nil {
			return res, err
		}
	}
	kernelReplay(tr, seed)
	tr.readRuntime()
	if err := tr.writeSpans(filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", name, seed))); err != nil {
		return res, err
	}
	for _, m := range perLayerMetrics {
		v, ok := tr.values[m.name]
		if !ok {
			res.Correct = false
			fmt.Printf("CHECK FAILED [trace]: per-layer metric %s was not measured\n", m.name)
		}
		res.put(m.name, m.unit, v)
		fmt.Printf("layer %-40s %14.6g %s\n", m.name, v, m.unit)
	}
	return res, nil
}

// put records a metric; a value that is not a finite number (an empty
// series) makes the run incorrect and is reported as 0.
func (r *resultJSON) put(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		fmt.Printf("CHECK FAILED: metric %s is %v\n", name, v)
		r.Correct = false
		v = 0
	}
	r.Metrics[name] = metricJSON{Value: v, Unit: unit}
}

// probeSeconds is how long a traced run measures each other workload to
// fill in that workload's layer metrics.
const probeSeconds = 2.0

func printOutcome(label string, o *outcome) {
	fmt.Printf("[%s] attempted %d failed %d\n", label, o.attempted, o.failed)
	for _, m := range e2eMetrics {
		fmt.Printf("[%s] %-14s corrected %12.6g  raw %12.6g %s\n", label, m.name, o.e2e[m.name], o.raw[m.name], m.unit)
	}
}

// scratchDir makes the run's private temporary directory inside the
// working directory's .bench_build (the benchmark touches nothing outside
// the checkout it runs in).
func scratchDir() (string, error) {
	base, err := filepath.Abs(filepath.Join(".bench_build", "tmp"))
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, fmt.Sprintf("run-%d-", os.Getpid()))
}

// cpuTicks is the machine-wide CPU time of /proc/stat: all of it and the
// part the hypervisor stole (time a virtual CPU was runnable but another
// guest ran). The speed correction does not follow steal that hits the
// operations and not their calibrations, so every run reports it.
type cpuTicks struct{ total, steal uint64 }

func readSteal() (cpuTicks, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}, false
	}
	var t cpuTicks
	for i, x := range f[1:] {
		v, err := strconv.ParseUint(x, 10, 64)
		if err != nil {
			return cpuTicks{}, false
		}
		if i < 8 { // user … steal; guest time is already in user
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t, true
}

// share is the stolen share of the CPU time between before and t.
func (t cpuTicks) share(before cpuTicks) float64 {
	if t.total <= before.total {
		return 0
	}
	return float64(t.steal-before.steal) / float64(t.total-before.total)
}

// parallelism is the thread count every multi-threaded workload uses.
func parallelism() int { return runtime.NumCPU() }
