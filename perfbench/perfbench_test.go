package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/graybox-stabilization/graybox/internal/harness"
)

// The traced runs must be the untraced runs: every decorator forwards what
// the program looks for (ClockHolder, Corruptible, TimeoutDelta), so the
// obs snapshots match byte for byte.
func TestTracedSnapshotsMatchUntraced(t *testing.T) {
	defer quietStderr()()
	cfgs := stabConfigs(5, 2*deadlockEvery) // RA and Lamport, faulted and deadlocked
	var l layers
	self := map[string]int64{}
	for _, cfg := range cfgs {
		want := snapJSON(harness.Run(cfg).Obs)
		got := snapJSON(stabTraced(cfg, &l, self).Obs)
		if !bytes.Equal(got, want) {
			t.Errorf("sim-stabilize seed %d (%s, deadlock %v): traced snapshot differs", cfg.Seed, cfg.Algo, cfg.DeadlockFault)
		}
	}
	if l.ra.calls == 0 || l.lamport.calls == 0 || l.wrapper.calls == 0 || l.lspec.calls == 0 {
		t.Errorf("a sim-stabilize layer was never traced: %+v", l)
	}

	shards := []*layers{{}, {}}
	clocks := []*shardClock{{}, {}}
	for _, cfg := range scaleConfigs(5)[:2] {
		want := harness.RunSharded(cfg).MetricsJSON()
		res, _ := scaleTraced(cfg, shards, clocks)
		if !bytes.Equal(res.MetricsJSON(), want) {
			t.Errorf("sim-scale seed %d: traced snapshots differ", cfg.Seed)
		}
	}
	for s, l := range shards {
		if l.ra.calls == 0 || l.wrapper.calls == 0 || clocks[s].busy == 0 {
			t.Errorf("sim-scale shard %d was never traced: %+v busy %d", s, l, clocks[s].busy)
		}
	}
}

// exactLines are a result's simulated metrics: the report lines marked
// exact and msgs_per_entry.
func exactLines(r *result) []string {
	var out []string
	for _, l := range r.report {
		if strings.Contains(l, "exact") {
			out = append(out, l)
		}
	}
	return out
}

// The simulated metrics repeat exactly across invocations and do not
// depend on how many samples a run measured.
func TestSimulatedMetricsDeterministic(t *testing.T) {
	for _, w := range workloads[:2] {
		one := w.run(opts{seed: 7, seconds: 1e9, maxSamples: 1})
		two := w.run(opts{seed: 7, seconds: 1e9, maxSamples: 2})
		if one.failed != 0 || two.failed != 0 {
			t.Fatalf("%s: failures: %v %v", w.name, one.report, two.report)
		}
		if two.attempted != 2*one.attempted {
			t.Errorf("%s: attempted %d then %d, want one and two samples", w.name, one.attempted, two.attempted)
		}
		if !reflect.DeepEqual(exactLines(one), exactLines(two)) || len(exactLines(one)) == 0 {
			t.Errorf("%s: simulated metrics differ:\n%v\n%v", w.name, exactLines(one), exactLines(two))
		}
		if one.metrics["msgs_per_entry"] != two.metrics["msgs_per_entry"] {
			t.Errorf("%s: msgs_per_entry %v vs %v", w.name, one.metrics["msgs_per_entry"], two.metrics["msgs_per_entry"])
		}
	}
}

func TestStabConfigsFollowSeed(t *testing.T) {
	a, b := stabConfigs(3, 16), stabConfigs(3, 16)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different seed lists")
	}
	if reflect.DeepEqual(a, stabConfigs(4, 16)) {
		t.Fatal("different seeds, same seed list")
	}
}

func TestME1CheckFlagsOverlap(t *testing.T) {
	lc := &liveCluster{}
	lc.occupant.Store(-1)
	lc.enterCS(0)
	lc.leaveCS(0)
	lc.enterCS(1)
	if lc.overlaps.Load() != 0 {
		t.Fatal("disjoint intervals flagged")
	}
	lc.enterCS(2) // 1 has not left
	if lc.overlaps.Load() != 1 {
		t.Fatalf("overlap not flagged: %d", lc.overlaps.Load())
	}
}

func TestLatHistQuantile(t *testing.T) {
	var h latHist
	var xs []float64
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		ns := rng.Int63n(50000) + 20000
		if i%1000 == 0 {
			ns = 30_000_000 // beyond the buckets
		}
		h.add(ns)
		xs = append(xs, float64(ns)/1e3)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 1} {
		want := quantile(xs, q)
		if got := h.quantileUS(q); got < want-0.2 || got > want+0.2 {
			t.Errorf("q%.2f: got %.2fus, want %.2fus", q, got, want)
		}
	}
}

func TestLiveLoopbackShort(t *testing.T) {
	r := runLive(opts{seed: 1, seconds: 1})
	if r.failed != 0 || r.attempted == 0 {
		t.Fatalf("failed %d of %d: %v", r.failed, r.attempted, r.report)
	}
	if m := r.metrics["msgs_per_entry"].Value; m < 3.9 || m > 4.5 {
		t.Errorf("msgs_per_entry %v, want about 2(n-1) = 4 on a fault-free cluster", m)
	}
}

// The metrics a run prints are exactly the ones BENCHMARK.json declares.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	var want, got []string
	for _, m := range bench.PerLayer {
		want = append(want, m.Name+" "+m.Unit)
	}
	for _, m := range perLayer {
		got = append(got, m.name+" "+m.unit)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("per-layer metrics:\n got %v\nwant %v", got, want)
	}

	want, got = nil, []string{"setup_s s"} // added by main
	for _, m := range bench.EndToEnd {
		want = append(want, m.Name+" "+m.Unit)
	}
	r := runScale(opts{seed: 1, seconds: 1e9, maxSamples: 1})
	for k, m := range r.metrics {
		got = append(got, k+" "+m.Unit)
	}
	sort.Strings(want)
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("end-to-end metrics:\n got %v\nwant %v", got, want)
	}
}
