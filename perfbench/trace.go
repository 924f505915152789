package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/graybox-stabilization/graybox/internal/harness"
	"github.com/graybox-stabilization/graybox/internal/ltime"
	gbrt "github.com/graybox-stabilization/graybox/internal/runtime"
	"github.com/graybox-stabilization/graybox/internal/sim"
	"github.com/graybox-stabilization/graybox/internal/tme"
	"github.com/graybox-stabilization/graybox/internal/wrapper"
)

// perLayer lists every per-layer metric a traced run prints, on every
// workload; a layer a workload does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"engine.events", "count"},
	{"engine.self_ns_per_event", "ns"},
	{"engine.alloc_bytes_per_event", "B"},
	{"engine.shard_busy_skew", "ratio"},
	{"harness.setup_ns_per_run", "ns"},
	{"ra.calls", "count"},
	{"ra.ns_per_call", "ns"},
	{"lamport.calls", "count"},
	{"lamport.ns_per_call", "ns"},
	{"wrapper.fires", "count"},
	{"wrapper.ns_per_fire", "ns"},
	{"wrapper.msgs", "count"},
	{"wrapper.msg_share", "ratio"},
	{"wrapper.storms", "count"},
	{"wrapper.conv_ticks_p50", "ticks"},
	{"wrapper.conv_ticks_p95", "ticks"},
	{"wrapper.recovery_ticks_p50", "ticks"},
	{"lspec.observes", "count"},
	{"lspec.ns_per_observe", "ns"},
	{"lspec.time_share", "ratio"},
	{"fault.injected", "count"},
	{"hme.acquisitions", "count"},
	{"hme.order_violations", "count"},
	{"hme.audit_violations", "count"},
	{"runtime.deliver_ns", "ns"},
	{"runtime.msgs_delivered", "count"},
	{"wire.send_ns", "ns"},
	{"wire.msgs_per_flush", "count"},
	{"wire.bytes_per_msg", "B"},
	{"wire.conn_errors", "count"},
	{"gc.pause_share", "ratio"},
	{"gc.peak_heap_mb", "MiB"},
	{"trace.overhead_share", "ratio"},
	{"trace.unexplained_share", "ratio"},
}

// acc counts the calls across one layer boundary and the time spent in
// them.
type acc struct{ calls, ns int64 }

func (a *acc) add(b acc) { a.calls += b.calls; a.ns += b.ns }

func (a acc) perCall() float64 { return ratio(float64(a.ns), float64(a.calls)) }

// span is one timed call at a layer boundary. Parent is the enclosing
// run's span (0 = none); Run is the seeded run or request it belongs to.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Run    int64  `json:"run"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanCap bounds the full spans each owner keeps; aggregates cover every
// call regardless.
const spanCap = 4096

var spanIDs atomic.Int64

// layers is one goroutine's accumulators: the sim-stabilize loop, one
// sim-scale shard core, or one live node (whose node and wrapper calls the
// cluster already serializes under that node's lock). Owners never share
// one, so recording takes no lock and tracing adds no contention.
type layers struct {
	ra, lamport, wrapper, lspec acc
	wrapMsgs                    int64
	// tt is a live node's traced transport; wait accumulates how long each
	// delivered message sat between its arrival there and Deliver.
	tt          *tracedTransport
	wait        acc
	parent, run int64
	spans       []span
}

func (l *layers) rec(a *acc, name string, t0 int64) {
	t1 := nowNS()
	a.calls++
	a.ns += t1 - t0
	if len(l.spans) < spanCap {
		l.span(name, spanIDs.Add(1), t0, t1)
	}
}

func (l *layers) span(name string, id, t0, t1 int64) {
	if len(l.spans) < spanCap {
		l.spans = append(l.spans, span{ID: id, Parent: l.parent, Name: name, Run: l.run, Start: t0, End: t1})
	}
}

func (l *layers) merge(o *layers) {
	l.ra.add(o.ra)
	l.lamport.add(o.lamport)
	l.wrapper.add(o.wrapper)
	l.lspec.add(o.lspec)
	l.wrapMsgs += o.wrapMsgs
}

// tracedNode times the protocol layer: every mutating tme.Node call. The
// SpecView reads pass through untimed, so their cost stays with the caller
// (wrapper, monitor or engine). It forwards tme.ClockHolder and
// tme.Corruptible, which monitors and the fault injector look for.
type tracedNode struct {
	tme.Node
	l    *layers
	a    *acc
	name string
}

var (
	_ tme.ClockHolder = (*tracedNode)(nil)
	_ tme.Corruptible = (*tracedNode)(nil)
)

func (n *tracedNode) RequestCS() []tme.Message {
	t0 := nowNS()
	m := n.Node.RequestCS()
	n.l.rec(n.a, n.name, t0)
	return m
}

func (n *tracedNode) ReleaseCS() []tme.Message {
	t0 := nowNS()
	m := n.Node.ReleaseCS()
	n.l.rec(n.a, n.name, t0)
	return m
}

func (n *tracedNode) Deliver(msg tme.Message) []tme.Message {
	t0 := nowNS()
	if n.l.tt != nil {
		n.l.wait.calls++
		n.l.wait.ns += t0 - n.l.tt.popArrival()
	}
	m := n.Node.Deliver(msg)
	n.l.rec(n.a, n.name, t0)
	return m
}

func (n *tracedNode) Step() (bool, []tme.Message) {
	t0 := nowNS()
	e, m := n.Node.Step()
	n.l.rec(n.a, n.name, t0)
	return e, m
}

func (n *tracedNode) ClockNow() ltime.Timestamp { return n.Node.(tme.ClockHolder).ClockNow() }

func (n *tracedNode) Corrupt(c tme.Corruption) { n.Node.(tme.Corruptible).Corrupt(c) }

// tracedFactory decorates algo's node constructor; owner picks the
// accumulators for the k-th node constructed.
func tracedFactory(algo harness.Algo, owner func(k int) *layers) func(id, n int) tme.Node {
	inner := algo.Factory()
	k := 0
	return func(id, n int) tme.Node {
		nd := inner(id, n)
		_, ch := nd.(tme.ClockHolder)
		_, co := nd.(tme.Corruptible)
		if !ch || !co {
			panic(fmt.Sprintf("perfbench: %s node lacks ClockHolder or Corruptible", algo))
		}
		l := owner(k)
		k++
		if algo == harness.Lamport {
			return &tracedNode{nd, l, &l.lamport, "lamport"}
		}
		return &tracedNode{nd, l, &l.ra, "ra"}
	}
}

// tracedWrapper times the level-2 wrapper and forwards the W' timeout, which
// the program's own instrumentation reads for its resend-storm guard.
type tracedWrapper struct {
	inner *wrapper.Timed
	l     *layers
}

func (w *tracedWrapper) Fire(now int64, v tme.SpecView) []tme.Message {
	t0 := nowNS()
	m := w.inner.Fire(now, v)
	w.l.wrapMsgs += int64(len(m))
	w.l.rec(&w.l.wrapper, "wrapper", t0)
	return m
}

func (w *tracedWrapper) TimeoutDelta() int64 { return w.inner.TimeoutDelta() }

// tracedObserver times the spec monitors' per-event observation.
func tracedObserver(o sim.Observer, l *layers) sim.Observer {
	return func(s *sim.Sim) {
		t0 := nowNS()
		o(s)
		l.rec(&l.lspec, "lspec", t0)
	}
}

// tracedTransport times the wire layer's Send and the runtime's delivery
// callback, and stamps every arrival so the node's Deliver can report how
// long the message waited in the runtime. Arrival stamps and the
// cluster's mailbox are filled under one lock, so they stay in the same
// order and pair exactly with the Deliver calls.
type tracedTransport struct {
	inner gbrt.Transport

	sends, sendNS, callbackNS atomic.Int64

	mu       sync.Mutex
	arrivals []int64 // guarded by mu
}

func (t *tracedTransport) Start(deliver func(dst int, m tme.Message)) {
	t.inner.Start(func(dst int, m tme.Message) {
		t.mu.Lock()
		t0 := nowNS()
		t.arrivals = append(t.arrivals, t0)
		deliver(dst, m)
		t1 := nowNS()
		t.mu.Unlock()
		t.callbackNS.Add(t1 - t0)
	})
}

func (t *tracedTransport) Send(m tme.Message) {
	t0 := nowNS()
	t.inner.Send(m)
	t.sendNS.Add(nowNS() - t0)
	t.sends.Add(1)
}

func (t *tracedTransport) Close() error { return t.inner.Close() }

// popArrival returns the oldest unpaired arrival stamp.
func (t *tracedTransport) popArrival() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.arrivals[0]
	t.arrivals = t.arrivals[1:]
	return a
}

// allocBytes is the heap bytes allocated so far; reading it does not stop
// the world.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// gcPauseNS is the total stop-the-world pause time so far.
func gcPauseNS() int64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.PauseTotalNs)
}

// ledger is a traced run's totals, turned into per-layer metrics and the
// reconciliation line.
type ledger struct {
	workload string
	// unit is the work the overhead comparison times both ways: one pass
	// over the seed list, or one live CS entry.
	unit string
	l    layers
	// selfNS holds each layer's self time: its spans' duration minus the
	// part child spans cover. The engine's and harness's come from the
	// run loops; the protocol, wrapper and monitor layers have no children.
	selfNS map[string]int64
	// cpuNS and wallNS span what the layer totals cover: the traced passes,
	// or the traced cluster's life. basisNS is what the layers' self times
	// are reconciled against, named by basis.
	cpuNS, wallNS, basisNS int64
	basis                  string
	// untracedNS and tracedNS compare equal work run both ways.
	untracedNS, tracedNS float64
	pauseNS              int64
	spans                []span
}

// reconcile adds the reconciliation line and the trace shares: the layers'
// self times plus the residue equal the basis time.
func (g *ledger) reconcile(r *result) {
	names := make([]string, 0, len(g.selfNS))
	var sum int64
	for k, v := range g.selfNS {
		names = append(names, k)
		sum += v
	}
	sort.Strings(names)
	residue := g.basisNS - sum
	line := fmt.Sprintf("%s: reconcile:", g.workload)
	for _, k := range names {
		line += fmt.Sprintf(" %s %.1fms +", k, float64(g.selfNS[k])/1e6)
	}
	line += fmt.Sprintf(" residue %.1fms = %.1fms %s (wall %.1fms, process CPU %.1fms)",
		float64(residue)/1e6, float64(g.basisNS)/1e6, g.basis, float64(g.wallNS)/1e6, float64(g.cpuNS)/1e6)
	r.logf("%s", line)
	r.set("trace.unexplained_share", "ratio", ratio(float64(residue), float64(g.basisNS)))
	r.set("trace.overhead_share", "ratio", ratio(g.tracedNS, g.untracedNS)-1)
	r.set("gc.pause_share", "ratio", ratio(float64(g.pauseNS), float64(g.wallNS)))
	r.logf("%s: trace overhead: %.6g ns per %s traced vs %.6g ns untraced",
		g.workload, g.tracedNS, g.unit, g.untracedNS)
}

// layerMetrics sets the per-layer metrics every traced workload shares.
// Counts are divided by samples: passes over the seed list on the sims, 1
// on live-loopback. allMsgs is the program and wrapper messages of one
// sample.
func (g *ledger) layerMetrics(r *result, samples float64, allMsgs float64) {
	l := &g.l
	r.set("ra.calls", "count", float64(l.ra.calls)/samples)
	r.set("ra.ns_per_call", "ns", l.ra.perCall())
	r.set("lamport.calls", "count", float64(l.lamport.calls)/samples)
	r.set("lamport.ns_per_call", "ns", l.lamport.perCall())
	r.set("wrapper.fires", "count", float64(l.wrapper.calls)/samples)
	r.set("wrapper.ns_per_fire", "ns", l.wrapper.perCall())
	r.set("wrapper.msgs", "count", float64(l.wrapMsgs)/samples)
	r.set("wrapper.msg_share", "ratio", ratio(float64(l.wrapMsgs)/samples, allMsgs))
	r.set("lspec.observes", "count", float64(l.lspec.calls)/samples)
	r.set("lspec.ns_per_observe", "ns", l.lspec.perCall())
	r.set("lspec.time_share", "ratio", ratio(float64(l.lspec.ns), float64(g.wallNS)))
}

// finishTrace fills every per-layer metric a workload left unset with 0 and
// writes the aggregates and span sample under .bench_build/spans.
func finishTrace(r *result, g *ledger, seed int64) {
	r.set("gc.peak_heap_mb", "MiB", peakHeapMiB())
	for _, m := range perLayer {
		if _, ok := r.metrics[m.name]; !ok {
			r.set(m.name, m.unit, 0)
		}
	}
	dir := filepath.Join(".bench_build", "spans")
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", g.workload, seed))
	b, err := json.Marshal(struct {
		Workload string            `json:"workload"`
		Seed     int64             `json:"seed"`
		Env      string            `json:"env"`
		Metrics  map[string]metric `json:"metrics"`
		SelfNS   map[string]int64  `json:"self_ns"`
		Spans    []span            `json:"spans"`
	}{g.workload, seed, envRecord(seed), r.metrics, g.selfNS, g.spans})
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err == nil {
		err = os.WriteFile(path, b, 0o644)
	}
	if err != nil {
		r.fail("writing spans: %v", err)
		return
	}
	r.logf("%s: %d spans written to %s", g.workload, len(g.spans), path)
}
