package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}, {10, 1.4},
	} {
		if got := percentile(xs, c.q); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Errorf("percentile reordered its input: %v", xs)
	}
	if got := median([]float64{1, 2, 3, 10}); !near(got, 2.5) {
		t.Errorf("median of even sample = %v, want 2.5", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of empty sample should be NaN")
	}
}

// The expected cut points are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 5, 8.5},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{1, 2}, 0.75, 1.5, 2.25}, // outer points extrapolate
		{[]float64{2, 2, 2}, 2, 2, 2},
	} {
		q1, q2, q3, ok := quartiles(c.xs)
		if !ok || !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v %v, want %v %v %v", c.xs, q1, q2, q3, ok, c.q1, c.q2, c.q3)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value should not be ok")
	}
	if got := relSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 5.5/5.5) {
		t.Errorf("relSpread = %v, want 1", got)
	}
}

func TestOpDoneWaitSubtractsStages(t *testing.T) {
	if got := opDoneWait(300, 180, 100); !near(got, 20) {
		t.Errorf("opDoneWait = %v, want 20", got)
	}
	// Probe noise larger than the wait reads as no wait, never negative.
	if got := opDoneWait(270, 180, 100); got != 0 {
		t.Errorf("opDoneWait clamps to 0, got %v", got)
	}
}

func TestMicros(t *testing.T) {
	got := micros([]time.Duration{1500 * time.Nanosecond, 2 * time.Millisecond})
	if !near(got[0], 1.5) || !near(got[1], 2000) {
		t.Errorf("micros = %v", got)
	}
}

func TestPatchCheckRejectsStaleRound(t *testing.T) {
	var seeded [patchBytes]byte
	fillBytes(newRand(7), seeded[:])
	buf := make([]byte, patchBytes)
	fillPatch(buf, 41, &seeded)
	if !isPatch(buf, 41, &seeded) {
		t.Fatal("a freshly filled patch fails its own check")
	}
	if isPatch(buf, 42, &seeded) {
		t.Error("last round's patch passes this round's check")
	}
	buf[patchBytes-1] ^= 1
	if isPatch(buf, 41, &seeded) {
		t.Error("a corrupted payload byte passes the check")
	}
}

func TestReplayKeepsBoundaryAndAveragesInterior(t *testing.T) {
	g := make([]float64, gridN*gridN)
	for i := range g {
		g[i] = 1
	}
	for _, v := range replay(g) {
		if v != 1 {
			t.Fatalf("a constant grid must stay constant, got %v", v)
		}
	}
	g[5*gridN+5] = 4
	if got := jacobi(g, gridN, 5, 6, 5, 6); got != 1.75 {
		t.Errorf("jacobi next to a hot cell = %v, want 1.75", got)
	}
	if got := jacobi(g, gridN, 0, 5, 0, 5); got != 1 {
		t.Errorf("boundary cell changed to %v", got)
	}
}

func TestTracerWritesChromeEvents(t *testing.T) {
	tr := newTracer(2)
	rt := tr.rank(1)
	rt.beginOp(true) // warm-up: runs, but leaves no span
	ran := false
	rt.call(layerPut, func() { ran = true })
	rt.endOp()
	if !ran || tr.samples(layerPut) != 0 {
		t.Fatalf("warm-up call ran %v, recorded %d", ran, tr.samples(layerPut))
	}
	rt.beginOp(false)
	rt.call(layerPut, func() {})
	rt.call(layerBarrier, func() { time.Sleep(time.Millisecond) })
	rt.endOp()
	if tr.rank(0).op != 0 || rt.op != 2 {
		t.Fatalf("op numbers: rank0 %d rank1 %d", tr.rank(0).op, rt.op)
	}
	if got := tr.layerMedianUS(layerBarrier); got < 1000 {
		t.Errorf("barrier span median %v us, want >= 1000", got)
	}
	if tr.layerMedianUS(layerGAGet) != 0 || tr.samples(layerPut) != 1 {
		t.Error("untouched layer should read 0 and the put layer hold one sample")
	}
	var nilTrace *tracer
	ran = false
	nilTrace.rank(0).call(layerPut, func() { ran = true })
	if !ran {
		t.Error("a nil tracer must still run the call")
	}

	path := filepath.Join(t.TempDir(), "spans.json")
	n, err := tr.writeChrome(path)
	if err != nil || n != 3 {
		t.Fatalf("writeChrome = %d, %v; want 3 spans", n, err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("span file is not JSON: %v", err)
	}
	op := doc.TraceEvents[0]
	if op.Name != "op" || op.Args["parent"] != -1 || op.Args["op"] != 1 || op.TID != 1 {
		t.Errorf("first event %+v, want the op span of rank 1", op)
	}
	for _, ev := range doc.TraceEvents[1:] {
		if ev.Args["parent"] != 0 || ev.Args["op"] != 1 || ev.Ph != "X" {
			t.Errorf("child event %+v should point at the op span", ev)
		}
		if ev.TS < op.TS || ev.TS+ev.Dur > op.TS+op.Dur+1e-3 {
			t.Errorf("child %s [%v,+%v] outside its op [%v,+%v]", ev.Name, ev.TS, ev.Dur, op.TS, op.Dur)
		}
	}
}
