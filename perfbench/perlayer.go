package main

import (
	"fmt"
	"time"

	"armci"
	"armci/internal/msg"
	"armci/internal/trace"
)

// hopKinds are the message kinds whose per-hop latency and per-op count
// the traced run reports.
var hopKinds = []msg.Kind{
	msg.KindPut, msg.KindColl, msg.KindRmw, msg.KindRmwResp,
	msg.KindFenceReq, msg.KindFenceAck, msg.KindGet, msg.KindGetResp,
}

// spanMetrics maps per-layer metrics to the span layer they summarize.
var spanMetrics = []struct {
	name  string
	layer layer
}{
	{"armci.put.issue_us", layerPut},
	{"armci.lock.acquire_us", layerLockAcquire},
	{"armci.lock.release_us", layerLockRelease},
	{"armci.load_us", layerLoad},
	{"armci.fence_us", layerFence},
	{"ga.get_us", layerGAGet},
	{"ga.put_us", layerGAPut},
	{"ga.sync_us", layerGASync},
	{"stencil.compute_us", layerCompute},
}

// perLayer splits the workload's time across the layers it calls. An
// untraced loop and a traced loop, each half the measured time, give the
// tracing overhead; the traced loop's spans give each layer's call time
// and the program's own pipeline metrics each message kind's hop time.
// The gasync probes time the combined barrier's stages alone, and a few
// fixed-length runs count the messages and bytes one op costs. A metric
// of a layer the workload does not touch reads 0.
func perLayer(spec workloadSpec, seed uint64, d time.Duration, spanPath string) outcome {
	var out outcome
	w := spec.build(seed)
	procs := w.options().Procs

	plain := newRunCtl(procs)
	plain.seconds, plain.warm = d/2, d/20
	_, err := plain.execute(w, nil)
	ps := plain.summarize(w.collective(), spec.latencyRanks)
	out.attempted, out.failed = ps.attempted, ps.failed
	if err != nil {
		out.problem("%v", errRun("untraced", err))
		return out
	}

	tc := newRunCtl(procs)
	tc.seconds, tc.warm = d/2, d/20
	tc.tr = newTracer(procs)
	tc.probes = true
	pm := armci.NewMetrics()
	_, err = tc.execute(w, pm)
	ts := tc.summarize(w.collective(), spec.latencyRanks)
	out.attempted += ts.attempted
	out.failed += ts.failed
	if err != nil {
		out.problem("%v", errRun("traced", err))
		return out
	}

	for _, m := range spanMetrics {
		out.add(m.name, "us", tc.tr.layerMedianUS(m.layer), tc.tr.samples(m.layer))
	}
	barrier, ar, st3 := tc.probeMedianUS(probeBarrier), tc.probeMedianUS(probeAllReduce), tc.probeMedianUS(probeStage3)
	np := len(tc.ranks[0].probes[probeBarrier]) * procs
	out.add("collective.allreduce_us", "us", ar, np)
	out.add("collective.barrier_us", "us", st3, np)
	out.add("proc.allfence_us", "us", tc.probeMedianUS(probeAllFence), np)
	out.add("core.opdone_wait_us", "us", opDoneWait(barrier, ar, st3), np)
	if np > 0 {
		fmt.Printf("# diagnostic: ARMCI_Barrier alone %.4g us = all-reduce %.4g + op_done wait + barrier %.4g\n",
			barrier, ar, st3)
	}
	for _, k := range hopKinds {
		h := pm.KindHistogram(k)
		out.add(fmt.Sprintf("pipeline.%s.hop_mean_us", k), "us", float64(h.Mean())/float64(time.Microsecond), h.Count)
	}

	perOp, err := countPerOp(spec, w, seed)
	if err != nil {
		out.problem("%v", err)
		return out
	}
	out.add("wire.msgs_per_op", "count", perOp.msgs, perOp.ops)
	out.add("wire.bytes_per_op", "B", perOp.bytes, perOp.ops)
	for i, k := range hopKinds {
		out.add(fmt.Sprintf("wire.%s.msgs_per_op", k), "count", perOp.kinds[i], perOp.ops)
	}

	simRate, vt := 0.0, 0.0
	if w.options().Fabric == armci.FabricSim {
		simRate = perOp.msgs * ps.throughput
		vt = median(ts.vtUS)
	}
	out.add("sim.msgs_per_wall_s", "1/s", simRate, ps.ops)
	out.add("vt_latency_us", "us", vt, len(ts.vtUS))
	untraced, tracedP50 := median(ps.lat), median(ts.lat)
	out.add("trace.overhead_pct", "%", 100*(tracedP50-untraced)/untraced, len(ts.lat))

	n, err := tc.tr.writeChrome(spanPath)
	if err != nil {
		out.problem("writing spans: %v", err)
		return out
	}
	fmt.Printf("# spans: %d written to %s (%d past the per-rank bound kept only as durations)\n",
		n, spanPath, tc.tr.dropped())
	return out
}

// counts are the message counters of one run.
type counts struct {
	msgs, bytes int64
	kinds       [8]int64 // indexed like hopKinds
}

func countsOf(st *trace.Stats) counts {
	c := counts{msgs: int64(st.Sends()), bytes: st.Bytes()}
	for i, k := range hopKinds {
		c.kinds[i] = int64(st.Count(k))
	}
	return c
}

func (a counts) minus(b counts) counts {
	d := counts{msgs: a.msgs - b.msgs, bytes: a.bytes - b.bytes}
	for i := range a.kinds {
		d.kinds[i] = a.kinds[i] - b.kinds[i]
	}
	return d
}

// perOpCounts are message counts divided by the ops that caused them.
type perOpCounts struct {
	msgs, bytes float64
	kinds       [8]float64
	ops         int
}

func (c counts) per(ops int) perOpCounts {
	p := perOpCounts{msgs: float64(c.msgs) / float64(ops), bytes: float64(c.bytes) / float64(ops), ops: ops}
	for i := range c.kinds {
		p.kinds[i] = float64(c.kinds[i]) / float64(ops)
	}
	return p
}

// countRun runs k ops per rank and returns the run's message counters.
func countRun(w workload, k int) (counts, error) {
	c := newRunCtl(w.options().Procs)
	c.fixedOps = k
	rep, err := c.execute(w, nil)
	if err != nil {
		return counts{}, errRun(fmt.Sprintf("%d-op count", k), err)
	}
	if f := c.summarize(w.collective(), 0).failed; f > 0 {
		return counts{}, fmt.Errorf("%d-op count run: %d ops failed their check", k, f)
	}
	return countsOf(rep.Stats), nil
}

// countPerOp measures what one op costs in messages and bytes, exactly,
// from runs of 0, k and 2k ops per rank: set-up and teardown cancel in the
// differences. It is also the determinism self-check. On a workload whose
// protocol is timing-independent both differences must be equal, and on
// a deterministic one the 2k-op counts must repeat under another seed; it
// fails loudly if either does not hold. The lock's counts depend on how
// contended each hand-off was, so they are only averaged.
func countPerOp(spec workloadSpec, w workload, seed uint64) (perOpCounts, error) {
	k := spec.countOps
	var runs [3]counts
	for i := range runs {
		var err error
		if runs[i], err = countRun(w, i*k); err != nil {
			return perOpCounts{}, err
		}
	}
	ops := 2 * k
	if !w.collective() {
		ops *= w.options().Procs
	}
	first, second := runs[1].minus(runs[0]), runs[2].minus(runs[1])
	if w.collective() && first != second {
		return perOpCounts{}, fmt.Errorf("determinism self-check: message counts are not constant per op: ops %d..%d cost %+v, ops %d..%d cost %+v",
			0, k, first, k, 2*k, second)
	}
	if spec.deterministic {
		other, err := countRun(spec.build(seed+1), 2*k)
		if err != nil {
			return perOpCounts{}, err
		}
		if other != runs[2] {
			return perOpCounts{}, fmt.Errorf("determinism self-check: %d-op message counts differ between seed %d (%+v) and seed %d (%+v)",
				2*k, seed, runs[2], seed+1, other)
		}
	}
	return runs[2].minus(runs[0]).per(ops), nil
}
