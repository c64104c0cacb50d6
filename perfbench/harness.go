package main

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"armci"
)

// workload is one benchmark input set: the cluster it runs on and the
// closed loop every rank executes on it.
type workload interface {
	// options returns the cluster configuration.
	options() armci.Options
	// collective reports whether every operation ends in a cluster-wide
	// barrier. Such loops stop together at an op index rank 0 picks;
	// the others stop on their own clock, and an operation counts for one
	// rank instead of the whole cluster.
	collective() bool
	// run executes the rank's share of the workload after the first
	// barrier. It calls runCtl.loop once for the timed closed loop.
	// Workloads with a probe phase run it after the loop when
	// runCtl.probes is set.
	run(p *armci.Proc, c *runCtl)
}

// probe names one stage timed alone in the probe phase.
type probe uint8

const (
	probeBarrier   probe = iota // the whole combined ARMCI_Barrier
	probeAllReduce              // stage 1 alone: the op_init all-reduce
	probeStage3                 // stage 3 alone: the trailing barrier
	probeAllFence               // the original path's serialized AllFence
	numProbes
)

// rankResult is what one rank measured. Only its own goroutine writes it
// during the run.
type rankResult struct {
	lat         []time.Duration // latency of each op past the warm-up
	vt          []time.Duration // fabric (virtual) time of each op past the warm-up
	first, last time.Time       // window spanned by the counted ops
	ops, failed int             // every op attempted, warm-up included
	probes      [numProbes][]time.Duration
}

// runCtl coordinates one armci.Run of a workload and collects what its
// ranks measure.
type runCtl struct {
	seconds   time.Duration // timed loop length; 0 selects fixedOps
	fixedOps  int           // ops per rank when seconds == 0
	warm      time.Duration // leading share of the loop left out of the statistics
	setupOnly bool          // stop after the first barrier
	probes    bool          // time single stages alone after the loop (gasync)
	tr        *tracer       // spans around layer calls; nil when tracing is off

	start time.Time    // the armci.Run call
	setup atomic.Int64 // ns from start until the last rank passed the first barrier
	limit atomic.Int64 // op index collective loops stop at
	ranks []rankResult
}

func newRunCtl(procs int) *runCtl {
	c := &runCtl{ranks: make([]rankResult, procs)}
	c.limit.Store(math.MaxInt64)
	return c
}

// execute runs the workload once under c and returns the run's report.
func (c *runCtl) execute(w workload, metrics *armci.Metrics) (*armci.Report, error) {
	opt := w.options()
	opt.Metrics = metrics
	if opt.Fabric != armci.FabricSim {
		// Wall-clock bound on the whole run, so a hang fails well
		// inside the benchmark's own time limit.
		opt.Deadline = c.seconds + 30*time.Second
	}
	if c.seconds == 0 {
		c.limit.Store(int64(c.fixedOps))
	}
	c.start = time.Now()
	return armci.Run(opt, func(p *armci.Proc) {
		p.MPIBarrier()
		c.passedFirstBarrier()
		if c.setupOnly {
			return
		}
		w.run(p, c)
	})
}

// passedFirstBarrier records the set-up time: from the armci.Run call
// until the last rank is through its first barrier.
func (c *runCtl) passedFirstBarrier() {
	d := int64(time.Since(c.start))
	for {
		cur := c.setup.Load()
		if d <= cur || c.setup.CompareAndSwap(cur, d) {
			return
		}
	}
}

// setupTime is the measured set-up time of the run.
func (c *runCtl) setupTime() time.Duration { return time.Duration(c.setup.Load()) }

// loop is the closed loop: each rank issues its next operation only when
// the previous one has returned. work is the timed operation and check
// verifies its outputs untimed, reporting whether they were correct.
//
// A collective loop stops at an op index every rank must agree on. Rank 0
// picks it once its clock runs out, as two past the op it just finished:
// every rank is then at most one op further, and before starting the op
// after that it passes a barrier rank 0 entered after publishing the
// index, so it sees it.
func (c *runCtl) loop(p *armci.Proc, collective bool, work func(i int), check func(i int) bool) {
	rank := p.Rank()
	res := &c.ranks[rank]
	rt := c.tr.rank(rank)
	loopStart := time.Now()
	for i := 0; ; i++ {
		if collective || c.seconds == 0 {
			if int64(i) >= c.limit.Load() {
				break
			}
		} else if time.Since(loopStart) >= c.seconds {
			break
		}
		counted := time.Since(loopStart) >= c.warm
		rt.beginOp(!counted)
		vt0 := p.Now()
		t0 := time.Now()
		work(i)
		d := time.Since(t0)
		vt := p.Now() - vt0
		rt.endOp()
		res.ops++
		if !check(i) {
			res.failed++
		}
		if counted {
			if len(res.lat) == 0 {
				res.first = t0
			}
			res.lat = append(res.lat, d)
			res.vt = append(res.vt, vt)
			res.last = t0.Add(d)
		}
		if collective && rank == 0 && c.seconds > 0 && time.Since(loopStart) >= c.seconds {
			c.limit.CompareAndSwap(math.MaxInt64, int64(i)+2)
		}
	}
}

// timeProbe runs fn n times after pre, recording fn's duration under pr.
func (c *runCtl) timeProbe(p *armci.Proc, pr probe, n int, pre, fn, post func()) {
	res := &c.ranks[p.Rank()]
	for i := 0; i < n; i++ {
		pre()
		t0 := time.Now()
		fn()
		res.probes[pr] = append(res.probes[pr], time.Since(t0))
		post()
	}
}

// summary reduces a finished run to the end-to-end figures.
type summary struct {
	lat        []float64 // op latencies in µs, warm-up excluded
	vtUS       []float64 // fabric time per op in µs (virtual on the simulator)
	throughput float64   // cluster operations per wall second
	ops        int       // cluster operations counted in throughput
	attempted  int       // rank operations attempted, warm-up included
	failed     int
}

// summarize pools every rank's samples. latencyRanks limits the latency
// samples to the first ranks: on the simulator the ranks of one barrier
// are simulated one after another, so only one rank's op times are
// independent wall-clock samples.
func (c *runCtl) summarize(collective bool, latencyRanks int) summary {
	var s summary
	var first, last time.Time
	samples := 0
	for r := range c.ranks {
		res := &c.ranks[r]
		s.attempted += res.ops
		s.failed += res.failed
		if r < latencyRanks {
			s.lat = append(s.lat, micros(res.lat)...)
			s.vtUS = append(s.vtUS, micros(res.vt)...)
		}
		if len(res.lat) == 0 {
			continue
		}
		samples += len(res.lat)
		if first.IsZero() || res.first.Before(first) {
			first = res.first
		}
		if res.last.After(last) {
			last = res.last
		}
	}
	s.ops = samples
	if collective {
		s.ops = samples / len(c.ranks)
	}
	if win := last.Sub(first); win > 0 {
		s.throughput = float64(s.ops) / win.Seconds()
	}
	return s
}

// probeMedianUS is the median over every rank of one probe's durations.
func (c *runCtl) probeMedianUS(pr probe) float64 {
	var all []time.Duration
	for r := range c.ranks {
		all = append(all, c.ranks[r].probes[pr]...)
	}
	if len(all) == 0 {
		return 0
	}
	return median(micros(all))
}

// errRun wraps a failed cluster run with the phase it belongs to.
func errRun(phase string, err error) error { return fmt.Errorf("%s run: %w", phase, err) }
