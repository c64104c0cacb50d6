package main

import (
	"armci"
)

// lockWL is a contended MCS queue lock homed at rank 0 guarding a remote
// counter: each cycle loads the counter, stores it plus one and fences the
// store before handing the lock on. No collective runs inside the loop.
type lockWL struct {
	procs int
	base  int64 // seeded initial counter value
}

func newLock(seed uint64, procs int) *lockWL {
	return &lockWL{procs: procs, base: int64(newRand(seed).Uint32())}
}

func (w *lockWL) options() armci.Options {
	return armci.Options{
		Procs: w.procs, Fabric: armci.FabricChan, Preset: armci.PresetZero,
		NumMutexes: 1, LockHomes: []int{0},
	}
}

func (w *lockWL) collective() bool { return false }

// run checks each cycle as it goes — the counter a rank reads may not be
// below what it last wrote — and, once every rank is done, that the counter
// holds the seeded base plus one increment per cycle of every rank. Lost
// increments count as failed cycles.
func (w *lockWL) run(p *armci.Proc, c *runCtl) {
	me := p.Rank()
	rt := c.tr.rank(me)
	ctr := p.MallocWords(1)[0]
	home := p.NodeOf(int(ctr.Rank))
	if me == 0 {
		p.Store(ctr, w.base)
	}
	p.MPIBarrier()
	mu := p.Mutex(0, armci.LockQueue)
	last := w.base
	var v int64
	c.loop(p, false, func(int) {
		rt.call(layerLockAcquire, mu.Lock)
		rt.call(layerLoad, func() { v = p.Load(ctr) })
		rt.call(layerStore, func() { p.Store(ctr, v+1) })
		rt.call(layerFence, func() { p.Fence(home) })
		rt.call(layerLockRelease, mu.Unlock)
	}, func(int) bool {
		ok := v >= last
		last = v + 1
		return ok
	})

	cycles := []int64{int64(c.ranks[me].ops)}
	p.AllReduceSumInt64(cycles)
	if me == 0 {
		if lost := w.base + cycles[0] - p.Load(ctr); lost != 0 {
			c.ranks[0].failed += int(min(max(lost, -lost), cycles[0]))
		}
	}
}
