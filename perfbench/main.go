// Command perfbench is the repository's wall-clock benchmark. It runs one
// workload for a fixed time in closed loops, checks every operation's
// output, and prints each metric by name, unit and sample count, ending
// with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (set-up time, op
// latency percentiles, throughput). With -trace 1 they are the per-layer
// ones, from a separate traced run that also writes its spans as Chrome
// trace-event JSON.
//
// Run it from the repository root:
//
//	go -C perfbench run . -workload gasync -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workloadSpec names one workload and builds it from the seed. Why each
// is in the set is recorded in BENCHMARK.json.
type workloadSpec struct {
	name  string
	build func(seed uint64) workload
	// latencyRanks is how many ranks' op times are latency samples.
	latencyRanks int
	// countOps is the op count per rank of the exact-count runs.
	countOps int
	// deterministic marks a workload whose message counts must repeat
	// exactly across seeds, not only grow by a constant per op.
	deterministic bool
}

var specs = []workloadSpec{
	{
		name:         "gasync",
		build:        func(seed uint64) workload { return newGasync(seed, 8) },
		latencyRanks: 8, countOps: 20,
	},
	{
		name:         "lock",
		build:        func(seed uint64) workload { return newLock(seed, 4) },
		latencyRanks: 4, countOps: 50,
	},
	{
		name:         "stencil-tcp",
		build:        func(seed uint64) workload { return newStencil(seed, 4) },
		latencyRanks: 4, countOps: 5,
	},
	{
		name:         "sim-barrier",
		build:        func(seed uint64) workload { return newSimBarrier(seed, 256) },
		latencyRanks: 1, countOps: 2, deterministic: true,
	},
}

func findSpec(name string) (workloadSpec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return workloadSpec{}, false
}

// Set-up-only runs precede the timed run until either bound is reached;
// set-up time is the median over them and the timed run. A single set-up
// varies by its own size from run to run, so only a median of many is
// steady. Each starts from a freshly collected heap, so garbage the
// previous one left cannot put a collection inside the next.
const (
	maxSetupReps = 1000
	setupBudget  = 2 * time.Second
)

// metric is one reported figure.
type metric struct {
	name    string
	unit    string
	value   float64
	samples int
}

// outcome is what one invocation measured.
type outcome struct {
	metrics   []metric
	attempted int
	failed    int
	problems  []string // failed checks, each explained
}

func (o *outcome) add(name, unit string, value float64, samples int) {
	o.metrics = append(o.metrics, metric{name, unit, value, samples})
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func main() {
	name := flag.String("workload", "", "workload to run: gasync, lock, stencil-tcp or sim-barrier")
	seed := flag.Uint64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 10, "measured seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()

	spec, ok := findSpec(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (gasync, lock, stencil-tcp, sim-barrier), -seconds >= 1 and -trace 0 or 1\n")
		os.Exit(2)
	}
	dur := time.Duration(*seconds) * time.Second
	var out outcome
	if *traced == 0 {
		out = endToEnd(spec, *seed, dur)
	} else {
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.json", spec.name, *seed))
		out = perLayer(spec, *seed, dur, path)
	}
	if !report(os.Stdout, out) {
		os.Exit(1)
	}
}

// endToEnd measures set-up time and the timed closed loop, untraced.
func endToEnd(spec workloadSpec, seed uint64, d time.Duration) outcome {
	var out outcome
	w := spec.build(seed)
	procs := w.options().Procs
	var setups []float64
	for begin := time.Now(); len(setups) < maxSetupReps && time.Since(begin) < setupBudget; {
		c := newRunCtl(procs)
		c.setupOnly = true
		runtime.GC()
		if _, err := c.execute(w, nil); err != nil {
			out.problem("%v", errRun("set-up", err))
			return out
		}
		setups = append(setups, c.setupTime().Seconds())
	}
	c := newRunCtl(procs)
	c.seconds, c.warm = d, d/10
	_, err := c.execute(w, nil)
	s := c.summarize(w.collective(), spec.latencyRanks)
	out.attempted, out.failed = s.attempted, s.failed
	if err != nil {
		out.problem("%v", errRun("timed", err))
		return out
	}
	setups = append(setups, c.setupTime().Seconds())
	out.add("setup_s", "s", median(setups), len(setups))
	out.add("latency_p50_us", "us", percentile(s.lat, 50), len(s.lat))
	out.add("latency_p90_us", "us", percentile(s.lat, 90), len(s.lat))
	out.add("throughput_ops_s", "1/s", s.throughput, s.ops)
	fmt.Printf("# diagnostic: latency_p99_us = %.4g us (n=%d; not gated, varies 1.5-2.5x run to run)\n",
		percentile(s.lat, 99), len(s.lat))
	if q1, _, q3, ok := quartiles(s.lat); ok {
		fmt.Printf("# diagnostic: latency quartiles %.4g .. %.4g us, set-up spread %.3f of median over %d set-ups\n",
			q1, q3, relSpread(setups), len(setups))
	}
	return out
}

// report prints every metric with its unit and sample count, then the
// result line. It reports whether the run was correct.
func report(f *os.File, out outcome) bool {
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "perfbench: FAILED: %s\n", p)
	}
	if len(out.problems) > 0 && out.failed == 0 {
		// A run error or a failed self-check fails at least one op.
		out.failed = 1
	}
	out.attempted = max(out.attempted, out.failed, 1)
	correct := len(out.problems) == 0 && out.failed == 0
	fmt.Fprintf(f, "# ops attempted %d, failed %d\n", out.attempted, out.failed)
	metrics := make(map[string]any, len(out.metrics))
	for _, m := range out.metrics {
		fmt.Fprintf(f, "# %s = %.6g %s (n=%d)\n", m.name, m.value, m.unit, m.samples)
		metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": out.attempted, "failed": out.failed, "metrics": metrics,
	})
	if err != nil {
		// NaN or Inf in a metric: a bug in the benchmark's arithmetic.
		fmt.Fprintf(os.Stderr, "perfbench: encoding the result: %v\n", err)
		return false
	}
	fmt.Fprintf(f, "%s\n", line)
	return correct
}
