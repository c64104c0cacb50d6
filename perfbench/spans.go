package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// layer names one span kind: a call the benchmark makes into one layer of
// the system. The per-layer metric of a layer is the median duration of
// its spans over every rank.
type layer uint8

const (
	layerOp layer = iota // one whole operation; parent of the others
	layerPut
	layerBarrier
	layerLockAcquire
	layerLockRelease
	layerLoad
	layerStore
	layerFence
	layerGAGet
	layerGAPut
	layerGASync
	layerCompute
	numLayers
)

var layerNames = [numLayers]string{
	layerOp:          "op",
	layerPut:         "armci.put.issue",
	layerBarrier:     "armci.barrier",
	layerLockAcquire: "armci.lock.acquire",
	layerLockRelease: "armci.lock.release",
	layerLoad:        "armci.load",
	layerStore:       "armci.store",
	layerFence:       "armci.fence",
	layerGAGet:       "ga.get",
	layerGAPut:       "ga.put",
	layerGASync:      "ga.sync",
	layerCompute:     "stencil.compute",
}

// maxSpansPerRank bounds the spans each rank keeps for the trace file, so
// a long traced run cannot grow without limit. Durations past the bound
// still feed the per-layer statistics.
const maxSpansPerRank = 5000

// span is one timed layer call. Times are offsets from the tracer's epoch.
type span struct {
	layer      layer
	start, end time.Duration
	parent     int32 // index of the enclosing span in the rank's list, -1 at top
	op         int32 // the rank's operation number
}

// rankTrace holds one rank's spans. Only that rank's goroutine touches it
// while the cluster runs; the tracer reads it after the run returns.
type rankTrace struct {
	epoch   time.Time
	spans   []span
	durs    [numLayers][]time.Duration
	dropped int
	op      int32
	opSpan  int32
	opStart time.Duration
	skip    bool // the current op is warm-up: run its calls unrecorded
}

// tracer keeps every rank's spans in memory for one traced run.
type tracer struct {
	epoch time.Time
	ranks []*rankTrace
}

func newTracer(ranks int) *tracer {
	t := &tracer{epoch: time.Now(), ranks: make([]*rankTrace, ranks)}
	for i := range t.ranks {
		t.ranks[i] = &rankTrace{epoch: t.epoch, spans: make([]span, 0, 1024), opSpan: -1}
	}
	return t
}

// rank returns the rank's span list, or nil when t is nil (tracing off);
// every rankTrace method is a no-op on nil.
func (t *tracer) rank(r int) *rankTrace {
	if t == nil {
		return nil
	}
	return t.ranks[r]
}

// beginOp opens the span of the rank's next operation. A warm-up op is
// not recorded, as the end-to-end statistics leave it out too.
func (rt *rankTrace) beginOp(warmUp bool) {
	if rt == nil {
		return
	}
	rt.skip = warmUp
	if warmUp {
		return
	}
	rt.opStart = time.Since(rt.epoch)
	rt.opSpan = -1
	if len(rt.spans) < maxSpansPerRank {
		rt.opSpan = int32(len(rt.spans))
		rt.spans = append(rt.spans, span{layer: layerOp, start: rt.opStart, parent: -1, op: rt.op})
	}
}

// endOp closes the current operation span.
func (rt *rankTrace) endOp() {
	if rt == nil {
		return
	}
	if !rt.skip {
		end := time.Since(rt.epoch)
		if rt.opSpan >= 0 {
			rt.spans[rt.opSpan].end = end
		} else {
			rt.dropped++
		}
		rt.durs[layerOp] = append(rt.durs[layerOp], end-rt.opStart)
	}
	rt.op++
}

// call runs fn, recording it as a child span of the current operation.
func (rt *rankTrace) call(l layer, fn func()) {
	if rt == nil || rt.skip {
		fn()
		return
	}
	start := time.Since(rt.epoch)
	fn()
	end := time.Since(rt.epoch)
	rt.durs[l] = append(rt.durs[l], end-start)
	if len(rt.spans) < maxSpansPerRank {
		rt.spans = append(rt.spans, span{layer: l, start: start, end: end, parent: rt.opSpan, op: rt.op})
	} else {
		rt.dropped++
	}
}

// layerMedianUS is the median duration of one layer's calls over every
// rank, in microseconds; 0 when the workload never calls that layer.
func (t *tracer) layerMedianUS(l layer) float64 {
	var all []time.Duration
	for _, rt := range t.ranks {
		all = append(all, rt.durs[l]...)
	}
	if len(all) == 0 {
		return 0
	}
	return median(micros(all))
}

// samples counts the recorded calls of one layer.
func (t *tracer) samples(l layer) int {
	n := 0
	for _, rt := range t.ranks {
		n += len(rt.durs[l])
	}
	return n
}

// traceEvent is one Chrome trace-event ("X" complete event). Times are in
// microseconds, as the format requires.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChrome writes every kept span as Chrome trace-event JSON (one
// thread per rank), loadable in chrome://tracing and Perfetto. It returns
// the number of spans written.
func (t *tracer) writeChrome(path string) (int, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	n := 0
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	for r, rt := range t.ranks {
		for _, s := range rt.spans {
			if n > 0 {
				w.WriteByte(',')
			}
			ev := traceEvent{
				Name: layerNames[s.layer], Ph: "X",
				TS:  float64(s.start) / float64(time.Microsecond),
				Dur: float64(s.end-s.start) / float64(time.Microsecond),
				TID: r, Args: map[string]int{"op": int(s.op), "parent": int(s.parent), "rank": r},
			}
			if err := enc.Encode(ev); err != nil {
				return n, err
			}
			n++
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		return n, err
	}
	return n, f.Close()
}

// dropped counts the spans left out of the trace file by the per-rank
// bound.
func (t *tracer) dropped() int {
	n := 0
	for _, rt := range t.ranks {
		n += rt.dropped
	}
	return n
}
