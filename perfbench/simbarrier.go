package main

import (
	"armci"
)

// simBarrier runs the Fig. 7 loop at scale on the discrete-event fabric:
// each rank puts one patch to a peer at a seeded offset, then calls
// ARMCI_Barrier. Its wall-clock figures measure the simulator itself.
type simBarrier struct {
	procs  int
	offset [variants]int                // [v] writer-to-target rank offset, never 0
	data   [variants][][patchBytes]byte // [v][writer] payload
}

func newSimBarrier(seed uint64, procs int) *simBarrier {
	rng := newRand(seed)
	w := &simBarrier{procs: procs}
	for v := range w.offset {
		w.offset[v] = 1 + rng.IntN(procs-1)
		w.data[v] = make([][patchBytes]byte, procs)
		for r := range w.data[v] {
			fillBytes(rng, w.data[v][r][:])
		}
	}
	return w
}

func (w *simBarrier) options() armci.Options {
	return armci.Options{Procs: w.procs, Fabric: armci.FabricSim, Preset: armci.PresetMyrinet2000}
}

func (w *simBarrier) collective() bool { return true }

func (w *simBarrier) run(p *armci.Proc, c *runCtl) {
	me := p.Rank()
	rt := c.tr.rank(me)
	// Two slots, alternating by round, as in gasync.
	regions := p.Malloc(2 * patchBytes)
	space := p.Env().Space()
	buf := make([]byte, patchBytes)
	c.loop(p, true, func(i int) {
		v := i % variants
		t := (me + w.offset[v]) % w.procs
		fillPatch(buf, i, &w.data[v][me])
		dst := regions[t].Add(int64((i % 2) * patchBytes))
		rt.call(layerPut, func() { p.Put(dst, buf) })
		rt.call(layerBarrier, p.Barrier)
	}, func(i int) bool {
		v := i % variants
		writer := (me - w.offset[v] + w.procs) % w.procs
		got := space.Get(regions[me].Add(int64((i%2)*patchBytes)), patchBytes)
		return isPatch(got, i, &w.data[v][writer])
	})
}
