package lspec

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/graybox-stabilization/graybox/internal/ltime"
	"github.com/graybox-stabilization/graybox/internal/sim"
	"github.com/graybox-stabilization/graybox/internal/spec"
	"github.com/graybox-stabilization/graybox/internal/tme"
)

// randomNode overwrites process j of g with small random values, invalid
// phases and clock regressions included, so every clause can fail.
func randomNode(rng *rand.Rand, g *sim.GlobalState, j int) {
	s := &g.Nodes[j]
	s.ID = j
	s.Phase = tme.Phase(rng.Intn(4)) // 0 is not a valid phase
	s.REQ = ltime.Timestamp{Clock: uint64(rng.Intn(4)), PID: j}
	s.TS = ltime.Timestamp{Clock: uint64(rng.Intn(4)), PID: j}
	s.HasTS = rng.Intn(4) != 0
	for k := range s.Local {
		s.Local[k] = ltime.Timestamp{Clock: uint64(rng.Intn(4)), PID: k}
		s.Received[k] = rng.Intn(2) == 0
	}
}

func newRandomState(rng *rand.Rand, n int) sim.GlobalState {
	g := sim.GlobalState{Nodes: make([]tme.SpecState, n)}
	for j := range g.Nodes {
		g.Nodes[j].Local = make([]ltime.Timestamp, n)
		g.Nodes[j].Received = make([]bool, n)
		randomNode(rng, &g, j)
	}
	return g
}

// TestLocalMonitorStutterEqualsObserve checks the lspec-specific monitor
// kinds the way spec's TestStutterEqualsObserve checks the generic ones: on
// seeded random traces with repeated states, a stuttering step returns
// what Observe of the repeated state does.
func TestLocalMonitorStutterEqualsObserve(t *testing.T) {
	kinds := map[string]func() spec.Monitor[sim.GlobalState]{
		"monotoneTS": func() spec.Monitor[sim.GlobalState] { return &monotoneTS{name: "timestamp.0"} },
		"stableREQ":  func() spec.Monitor[sim.GlobalState] { return &stableREQ{name: "request.req-stable.0"} },
	}
	rng := rand.New(rand.NewSource(2001))
	for name, mk := range kinds {
		for trial := 0; trial < 200; trial++ {
			ref, stut := mk(), mk()
			g := newRandomState(rng, 2)
			for step := 0; step < 40; step++ {
				repeat := step > 0 && rng.Intn(2) == 0
				if !repeat {
					randomNode(rng, &g, 0)
				}
				want := ref.Observe(g)
				var v *spec.Violation
				if repeat {
					v = stut.Stutter()
				} else {
					v = stut.Observe(g)
				}
				if (v == nil) != (want == nil) || (v != nil && (v.Op != want.Op || v.Index != want.Index)) {
					t.Fatalf("%s trial %d step %d: stutter path %v, observe path %v", name, trial, step, v, want)
				}
				if stut.Pending() != ref.Pending() {
					t.Fatalf("%s trial %d step %d: Pending %d, want %d",
						name, trial, step, stut.Pending(), ref.Pending())
				}
			}
		}
	}
}

func streamString(vs []TimedViolation) string {
	var b strings.Builder
	for _, v := range vs {
		b.WriteString(v.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestObserveChangedMatchesObserve feeds seeded random traces in which each
// step rewrites a random subset of processes to two Monitors: one observes
// every state in full, the other re-evaluates only the changed processes.
// Every verdict must agree.
func TestObserveChangedMatchesObserve(t *testing.T) {
	const n = 3
	rng := rand.New(rand.NewSource(20010701))
	for trial := 0; trial < 100; trial++ {
		full, scoped := New(n), New(n)
		g := newRandomState(rng, n)
		changed := make([]bool, n)
		for step := 0; step < 50; step++ {
			g.Time = int64(step)
			for j := range changed {
				changed[j] = step == 0 || rng.Intn(3) == 0
				if changed[j] && rng.Intn(2) == 0 {
					randomNode(rng, &g, j) // a changed mark may also cover an unchanged process
				}
			}
			full.Observe(g)
			scoped.observeChanged(g, changed)
		}
		if got, want := streamString(scoped.Violations()), streamString(full.Violations()); got != want {
			t.Fatalf("trial %d: violation streams differ\nscoped:\n%s\nfull:\n%s", trial, got, want)
		}
		if got, want := streamString(scoped.FCFSViolations()), streamString(full.FCFSViolations()); got != want {
			t.Fatalf("trial %d: FCFS streams differ\nscoped:\n%s\nfull:\n%s", trial, got, want)
		}
		if !reflect.DeepEqual(scoped.StarvedProcesses(), full.StarvedProcesses()) ||
			!reflect.DeepEqual(scoped.StuckEaters(), full.StuckEaters()) ||
			scoped.OpenReplyObligations() != full.OpenReplyObligations() {
			t.Fatalf("trial %d: open obligations differ", trial)
		}
	}
}

// observeFixture is a fault-free N=4 RA system run into a mid-run state,
// its snapshot taken through the delta path, and monitors that have
// observed it once.
type observeFixture struct {
	s *sim.Sim
	v sim.SnapVersions
	g sim.GlobalState
	m *Monitors
	// masks are the change sets the benchmark exercises.
	masks map[string][]bool
}

func newObserveFixture() *observeFixture {
	f := &observeFixture{m: New(4)}
	f.s = sim.New(sim.Config{N: 4, Seed: 1, NewNode: raFactory, Workload: true, MaxRequests: 1000})
	f.s.At(300, func(*sim.Sim) {}) // an At-closure invalidates every process
	f.s.Run(300)
	all := append([]bool(nil), f.s.SnapshotDeltaInto(&f.g, &f.v)...)
	stutter := append([]bool(nil), f.s.SnapshotDeltaInto(&f.g, &f.v)...)
	one := make([]bool, len(all))
	one[0] = true
	f.m.Observe(f.g)
	f.masks = map[string][]bool{"stutter": stutter, "one-changed": one, "all-changed": all}
	return f
}

// BenchmarkMonitorsObserve measures one monitor observation of an N=4 RA
// state when nothing changed, when one process changed, and when every
// process changed (as after an At closure).
func BenchmarkMonitorsObserve(b *testing.B) {
	f := newObserveFixture()
	for _, name := range []string{"stutter", "one-changed", "all-changed"} {
		mask := f.masks[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f.m.observeChanged(f.g, mask)
			}
		})
	}
}

// TestObserveAllocs pins the clean observe path — the delta snapshot plus
// the scoped observation, stuttering or not — at zero allocations.
func TestObserveAllocs(t *testing.T) {
	f := newObserveFixture()
	if a := testing.AllocsPerRun(100, func() {
		f.m.observeChanged(f.g, f.s.SnapshotDeltaInto(&f.g, &f.v))
	}); a != 0 {
		t.Errorf("delta snapshot + observe: %v allocs, want 0", a)
	}
	for name, mask := range f.masks {
		if a := testing.AllocsPerRun(100, func() { f.m.observeChanged(f.g, mask) }); a != 0 {
			t.Errorf("%s: %v allocs per observe, want 0", name, a)
		}
	}
	if len(f.m.Violations()) != 0 || len(f.m.FCFSViolations()) != 0 {
		t.Fatalf("fixture observations reported violations: %v %v", f.m.Violations(), f.m.FCFSViolations())
	}
}
