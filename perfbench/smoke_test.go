package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// metricsOf indexes an outcome's metrics by name.
func metricsOf(out outcome) map[string]metric {
	m := make(map[string]metric, len(out.metrics))
	for _, x := range out.metrics {
		m[x.name] = x
	}
	return m
}

func requireClean(t *testing.T, out outcome) {
	t.Helper()
	if len(out.problems) > 0 || out.failed > 0 || out.attempted == 0 {
		t.Fatalf("attempted %d, failed %d, problems %v", out.attempted, out.failed, out.problems)
	}
}

// TestSmokeEndToEnd runs every workload briefly on two seeds: every check
// must pass and every end-to-end metric be positive.
func TestSmokeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, spec := range specs {
		for _, seed := range []uint64{1, 2} {
			out := endToEnd(spec, seed, 300*time.Millisecond)
			requireClean(t, out)
			m := metricsOf(out)
			for _, name := range []string{"setup_s", "latency_p50_us", "latency_p90_us", "throughput_ops_s"} {
				if m[name].value <= 0 || m[name].samples == 0 {
					t.Errorf("%s seed %d: %s = %+v", spec.name, seed, name, m[name])
				}
			}
			if m["latency_p90_us"].value < m["latency_p50_us"].value {
				t.Errorf("%s: p90 below p50", spec.name)
			}
		}
	}
}

// TestSmokePerLayer runs every workload's traced phase: every per-layer
// metric is reported, the layers each workload exists for are non-zero,
// the determinism self-check passes, and the span file is written.
func TestSmokePerLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	touched := map[string][]string{
		"gasync": {"armci.put.issue_us", "collective.allreduce_us", "collective.barrier_us",
			"proc.allfence_us", "pipeline.put.hop_mean_us", "wire.put.msgs_per_op"},
		"lock": {"armci.lock.acquire_us", "armci.lock.release_us", "armci.load_us", "armci.fence_us",
			"pipeline.rmw.hop_mean_us", "wire.rmw.msgs_per_op"},
		"stencil-tcp": {"ga.get_us", "ga.put_us", "ga.sync_us", "stencil.compute_us",
			"pipeline.get.hop_mean_us", "wire.get-resp.msgs_per_op"},
		"sim-barrier": {"sim.msgs_per_wall_s", "vt_latency_us", "wire.coll.msgs_per_op"},
	}
	var names []string
	for _, spec := range specs {
		path := filepath.Join(t.TempDir(), spec.name+".json")
		out := perLayer(spec, 3, 400*time.Millisecond, path)
		requireClean(t, out)
		m := metricsOf(out)
		if names == nil {
			for _, x := range out.metrics {
				names = append(names, x.name)
			}
		} else if len(out.metrics) != len(names) {
			t.Errorf("%s reports %d per-layer metrics, gasync %d", spec.name, len(out.metrics), len(names))
		}
		for _, name := range touched[spec.name] {
			if m[name].value <= 0 {
				t.Errorf("%s: %s = %+v, want > 0", spec.name, name, m[name])
			}
		}
		if m["wire.msgs_per_op"].value <= 0 || m["wire.bytes_per_op"].value <= 0 {
			t.Errorf("%s: no message counts", spec.name)
		}
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("%s: span file %s: %v", spec.name, path, err)
		}
	}
}

// TestSimCountsRepeatAcrossSeeds is the determinism self-check on its
// own: the simulator's per-op message counts do not depend on the seed.
func TestSimCountsRepeatAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator")
	}
	spec, _ := findSpec("sim-barrier")
	a, err := countPerOp(spec, spec.build(5), 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := countPerOp(spec, spec.build(9), 9)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("per-op counts differ across seeds: %+v vs %+v", a, b)
	}
	// 256 puts plus the all-reduce and barrier exchanges: log2(256) = 8
	// rounds each, one message per rank per round.
	if a.kinds[0] != 256 || a.kinds[1] != 2*8*256 {
		t.Errorf("sim-barrier per-op puts %v, coll %v; want 256, 4096", a.kinds[0], a.kinds[1])
	}
}
