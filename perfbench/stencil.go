package main

import (
	"fmt"

	"armci"
	"armci/ga"
)

const (
	gridN        = 32 // the grid is gridN × gridN cells
	stencilSteps = 8  // Jacobi sweeps per solve
	stencilInits = 4  // distinct seeded initial grids
)

// stencil is a Global Arrays Jacobi solve over loopback sockets: each step
// gets the halo patch around the rank's block (strided gets from every
// neighbouring owner), computes the 5-point update, puts the block and
// calls GA_Sync. One operation is one whole solve.
type stencil struct {
	procs int
	init  [stencilInits][]float64 // row-major initial grids
	want  [stencilInits][]float64 // the sequential replay of each solve
}

func newStencil(seed uint64, procs int) *stencil {
	rng := newRand(seed)
	w := &stencil{procs: procs}
	for k := range w.init {
		g := make([]float64, gridN*gridN)
		for i := range g {
			g[i] = rng.Float64()
		}
		w.init[k] = g
		w.want[k] = replay(g)
	}
	return w
}

// replay is the sequential reference: stencilSteps Jacobi sweeps of the
// whole grid, computed cell by cell with the distributed solve's own
// update, so a correct solve matches it bit for bit.
func replay(g []float64) []float64 {
	cur := append([]float64(nil), g...)
	next := make([]float64, len(g))
	for s := 0; s < stencilSteps; s++ {
		for r := 0; r < gridN; r++ {
			for c := 0; c < gridN; c++ {
				next[r*gridN+c] = jacobi(cur, gridN, r, c, r, c)
			}
		}
		cur, next = next, cur
	}
	return cur
}

// jacobi is the updated value of global cell (r, c), read from buf, a
// row-major patch of width cols whose cell (0, 0) is global (r-pr, c-pc).
// Boundary cells keep their value.
func jacobi(buf []float64, cols, r, c, pr, pc int) float64 {
	at := func(dr, dc int) float64 { return buf[(pr+dr)*cols+pc+dc] }
	if r == 0 || c == 0 || r == gridN-1 || c == gridN-1 {
		return at(0, 0)
	}
	return 0.25 * (at(-1, 0) + at(1, 0) + at(0, -1) + at(0, 1))
}

func (w *stencil) options() armci.Options {
	return armci.Options{Procs: w.procs, Fabric: armci.FabricTCP, Preset: armci.PresetZero}
}

func (w *stencil) collective() bool { return true }

func (w *stencil) run(p *armci.Proc, c *runCtl) {
	rt := c.tr.rank(p.Rank())
	var grids [2]*ga.Array
	for k := range grids {
		a, err := ga.Create(p, fmt.Sprintf("grid%d", k), gridN, gridN)
		if err != nil {
			panic(err) // the fixed shape is valid; only a bug gets here
		}
		grids[k] = a
	}
	rlo, rhi, clo, chi := grids[0].Distribution(p.Rank())
	// The halo patch: the block plus one cell on every side that has one.
	hrlo, hrhi, hclo, hchi := max(rlo-1, 0), min(rhi+1, gridN), max(clo-1, 0), min(chi+1, gridN)
	block := make([]float64, (rhi-rlo)*(chi-clo))

	blockOf := func(g []float64) []float64 {
		for r := rlo; r < rhi; r++ {
			copy(block[(r-rlo)*(chi-clo):], g[r*gridN+clo:r*gridN+chi])
		}
		return block
	}
	c.loop(p, true, func(i int) {
		// Start the solve: load this rank's block of the seeded grid.
		grids[0].Put(rlo, rhi, clo, chi, blockOf(w.init[i%stencilInits]))
		grids[0].Sync()
		for s := 0; s < stencilSteps; s++ {
			src, dst := grids[s%2], grids[(s+1)%2]
			var halo []float64
			rt.call(layerGAGet, func() { halo = src.Get(hrlo, hrhi, hclo, hchi) })
			rt.call(layerCompute, func() {
				for row := rlo; row < rhi; row++ {
					for col := clo; col < chi; col++ {
						block[(row-rlo)*(chi-clo)+col-clo] = jacobi(halo, hchi-hclo, row, col, row-hrlo, col-hclo)
					}
				}
			})
			rt.call(layerGAPut, func() { dst.Put(rlo, rhi, clo, chi, block) })
			rt.call(layerGASync, dst.Sync)
		}
	}, func(i int) bool {
		got := grids[stencilSteps%2].Get(rlo, rhi, clo, chi)
		want := blockOf(w.want[i%stencilInits])
		for k := range got {
			if got[k] != want[k] {
				return false
			}
		}
		return true
	})
}
