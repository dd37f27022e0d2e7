package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// spreadMain runs one workload k times, each in a fresh process with its
// own seed, and prints for every end-to-end metric the spread of its k
// values — (Q3 − Q1) / median with Python's statistics.quantiles
// (exclusive method) — both speed-corrected and raw.
func spreadMain(args []string) int {
	fs := flag.NewFlagSet("spread", flag.ExitOnError)
	name := fs.String("workload", "solve", "workload to repeat")
	repeat := fs.Int("repeat", 5, "number of runs (one fresh process each)")
	seconds := fs.Float64("seconds", 20, "--seconds of each run")
	first := fs.Uint64("seed", 1, "seed of the first run; run i uses seed+i")
	_ = fs.Parse(args)

	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "spread:", err)
		return 1
	}
	corr := map[string][]float64{}
	raw := map[string][]float64{}
	line := regexp.MustCompile(`^\[` + regexp.QuoteMeta(*name) + `\] (\S+)\s+corrected\s+(\S+)\s+raw\s+(\S+)`)
	for i := 0; i < *repeat; i++ {
		seed := *first + uint64(i)
		cmd := exec.Command(self, "--workload", *name, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.FormatFloat(*seconds, 'g', -1, 64), "--trace", "0")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "spread: run %d (seed %d): %v\n", i, seed, err)
			return 1
		}
		var last, host string
		sc := bufio.NewScanner(bytes.NewReader(out))
		for sc.Scan() {
			last = sc.Text()
			if strings.HasPrefix(last, "host: ") {
				host = strings.TrimPrefix(last, "host: ")
			}
			if m := line.FindStringSubmatch(last); m != nil {
				c, _ := strconv.ParseFloat(m[2], 64)
				r, _ := strconv.ParseFloat(m[3], 64)
				corr[m[1]] = append(corr[m[1]], c)
				raw[m[1]] = append(raw[m[1]], r)
			}
		}
		var res resultJSON
		if err := json.Unmarshal([]byte(last), &res); err != nil || !res.Correct {
			fmt.Fprintf(os.Stderr, "spread: run %d (seed %d) did not end with a correct result: %s\n", i, seed, last)
			return 1
		}
		fmt.Printf("run %d seed %d:", i, seed)
		for _, m := range e2eMetrics {
			fmt.Printf(" %s=%.6g", m.name, res.Metrics[m.name].Value)
		}
		if host != "" {
			fmt.Printf(" (%s)", host)
		}
		fmt.Println()
	}
	fmt.Printf("%-14s %12s %10s %12s %10s\n", "metric", "median", "spread", "raw median", "raw spread")
	for _, m := range e2eMetrics {
		c, r := corr[m.name], raw[m.name]
		fmt.Printf("%-14s %12.6g %9.1f%% %12.6g %9.1f%%\n", m.name, pyMedian(c), 100*iqrShare(c), pyMedian(r), 100*iqrShare(r))
	}
	return 0
}

// iqrShare is (Q3 − Q1) / median, with the quartiles of Python's
// statistics.quantiles(xs, n=4) (method "exclusive").
func iqrShare(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		m := len(s)
		h := p * float64(m+1) // 1-based position
		j := int(h)
		delta := h - float64(j)
		if j < 1 {
			return s[0]
		}
		if j >= m {
			return s[m-1]
		}
		return s[j-1] + delta*(s[j]-s[j-1])
	}
	med := pyMedian(s)
	if med == 0 {
		return 0
	}
	return (q(0.75) - q(0.25)) / med
}

// pyMedian is statistics.median: the mean of the middle pair for even n.
func pyMedian(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	if m%2 == 1 {
		return s[m/2]
	}
	return (s[m/2-1] + s[m/2]) / 2
}
