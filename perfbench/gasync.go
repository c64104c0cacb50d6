package main

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"

	"armci"
)

// patchBytes is the size of every patch a writer stamps into a peer.
const patchBytes = 64

// variants is how many distinct seeded inputs a workload cycles through;
// a round stamp keeps every op's data distinct anyway.
const variants = 16

// gasync is the paper's Fig. 7 loop: every rank puts a patch to every
// other rank, then calls ARMCI_Barrier (GA_Sync's new path).
type gasync struct {
	procs int
	order [variants][][]int              // [v][writer] target order
	data  [variants][][][patchBytes]byte // [v][writer][target] payload
}

func newGasync(seed uint64, procs int) *gasync {
	rng := newRand(seed)
	w := &gasync{procs: procs}
	for v := range w.order {
		w.order[v] = make([][]int, procs)
		w.data[v] = make([][][patchBytes]byte, procs)
		for r := 0; r < procs; r++ {
			w.order[v][r] = peerOrder(rng, procs, r)
			w.data[v][r] = make([][patchBytes]byte, procs)
			for t := range w.data[v][r] {
				fillBytes(rng, w.data[v][r][t][:])
			}
		}
	}
	return w
}

func (w *gasync) options() armci.Options {
	return armci.Options{Procs: w.procs, Fabric: armci.FabricChan, Preset: armci.PresetZero}
}

func (w *gasync) collective() bool { return true }

// slot is where writer's round-i patch lands in a target's region. Rounds
// alternate between two slots, so a writer already in round i+1 cannot
// overwrite a patch its target is still checking for round i.
func (w *gasync) slot(base armci.Ptr, i, writer int) armci.Ptr {
	return base.Add(int64(((i%2)*w.procs + writer) * patchBytes))
}

// fillPatch writes writer's round-i payload for target into buf: the
// seeded bytes with the round number stamped over the first eight.
func fillPatch(buf []byte, i int, seeded *[patchBytes]byte) {
	copy(buf, seeded[:])
	binary.LittleEndian.PutUint64(buf[:8], uint64(i))
}

// isPatch reports whether got is the patch fillPatch makes.
func isPatch(got []byte, i int, seeded *[patchBytes]byte) bool {
	return len(got) == patchBytes && binary.LittleEndian.Uint64(got[:8]) == uint64(i) &&
		bytes.Equal(got[8:], seeded[8:])
}

func (w *gasync) run(p *armci.Proc, c *runCtl) {
	me := p.Rank()
	rt := c.tr.rank(me)
	regions := p.Malloc(2 * w.procs * patchBytes)
	space := p.Env().Space()
	buf := make([]byte, patchBytes)
	c.loop(p, true, func(i int) {
		w.putAll(p, rt, regions, buf, i)
		rt.call(layerBarrier, p.Barrier)
	}, func(i int) bool {
		for writer := 0; writer < w.procs; writer++ {
			if writer == me {
				continue
			}
			got := space.Get(w.slot(regions[me], i, writer), patchBytes)
			if !isPatch(got, i, &w.data[i%variants][writer][me]) {
				return false
			}
		}
		return true
	})
	if c.probes {
		w.probe(p, c, regions, buf)
	}
}

// putAll issues the rank's round-i puts in its seeded target order. Put
// copies its data, so one scratch buffer serves every put.
func (w *gasync) putAll(p *armci.Proc, rt *rankTrace, regions []armci.Ptr, buf []byte, i int) {
	me := p.Rank()
	for _, t := range w.order[i%variants][me] {
		fillPatch(buf, i, &w.data[i%variants][me][t])
		dst := w.slot(regions[t], i, me)
		rt.call(layerPut, func() { p.Put(dst, buf) })
	}
}

// probeIters is how many times each stage is timed alone.
const probeIters = 300

// probe times the three stages of the combined barrier alone, and the
// original path's AllFence, each after the same puts as the timed loop.
// Stage 1 runs with the puts in flight, as inside Barrier; stage 3 runs
// once they are complete, as after Barrier's op_done wait.
func (w *gasync) probe(p *armci.Proc, c *runCtl, regions []armci.Ptr, buf []byte) {
	// The probes' puts reuse the loop's regions: wait until every rank
	// has checked its last round.
	p.MPIBarrier()
	i := 0
	puts := func() { w.putAll(p, nil, regions, buf, i); i++ }
	putsAndSync := func() { puts(); p.Barrier() }
	none := func() {}
	c.timeProbe(p, probeBarrier, probeIters, puts, p.Barrier, none)
	c.timeProbe(p, probeAllReduce, probeIters, puts, func() {
		sum := append([]int64(nil), p.Engine().OpInit()...)
		p.Comm().AllReduceSumInt64Alg(sum, armci.BarrierAuto)
	}, p.Barrier)
	c.timeProbe(p, probeStage3, probeIters, putsAndSync, p.MPIBarrier, none)
	c.timeProbe(p, probeAllFence, probeIters, puts, p.AllFence, p.MPIBarrier)
}

// newRand returns the workload input generator for seed.
func newRand(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15)) }

// peerOrder is a seeded order of every rank but me.
func peerOrder(rng *rand.Rand, procs, me int) []int {
	out := make([]int, 0, procs-1)
	for _, t := range rng.Perm(procs) {
		if t != me {
			out = append(out, t)
		}
	}
	return out
}

func fillBytes(rng *rand.Rand, b []byte) {
	for i := range b {
		b[i] = byte(rng.Uint32())
	}
}
