package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/graybox-stabilization/graybox/internal/harness"
	"github.com/graybox-stabilization/graybox/internal/obs"
	gbrt "github.com/graybox-stabilization/graybox/internal/runtime"
	"github.com/graybox-stabilization/graybox/internal/wire"
	"github.com/graybox-stabilization/graybox/internal/wrapper"
)

// live-loopback is the deployed lock-service path: three nodes in one
// process, each a runtime.Cluster over its own wire.Transport on TCP
// loopback with the transport's default codec, RA + PhaseGuard + W'
// (δ=25ms on the real timer), fault-free, no injected delay. One
// closed-loop client per node requests with zero think and zero hold and
// waits for its OnEntry notification.
const (
	liveN      = 3
	liveDelta  = 25 * time.Millisecond
	liveWarmup = 500 * time.Millisecond
	liveStuck  = 10 * time.Second

	// Allocations are counted from the cluster's allocFrom-th entry to its
	// allocTo-th, a fixed span rather than a fixed time: runtime.Cluster
	// logs every entry in a slice that grows in steps, and over a fixed
	// time the number of steps taken in moved allocations per entry by up
	// to 13% between runs.
	allocFrom = 50_000
	allocTo   = 550_000
)

type liveClient struct {
	entered chan int64 // OnEntry stamps; one request is outstanding at a time
	extra   atomic.Int64
	done    atomic.Int64
	early   int64     // entries stamped before their request
	waits   latHist   // waits of the requests issued inside the window
	windows windowLat // the same waits, summarized per sub-window
	spans   []span    // traced clusters: request → OnEntry, a bounded sample
}

type liveCluster struct {
	clusters []*gbrt.Cluster
	obs      []*obs.Obs
	clients  []*liveClient
	nodes    []*layers          // traced only
	tts      []*tracedTransport // traced only

	// occupant is the client whose CS interval is open, -1 for none. The
	// interval opens in the OnEntry callback, after the node entered, and
	// closes just before the client calls Release, so it lies inside the
	// node's true eating interval: a second client opening one while it is
	// open is an ME1 violation, never a false alarm.
	occupant atomic.Int64
	overlaps atomic.Int64
	// recFrom and recTo bound the request stamps whose waits are recorded;
	// winNS is the width of the sub-windows they are summarized in.
	recFrom, recTo atomic.Int64
	winNS          int64
	// finished counts every client's completed cycles; allocAt holds the
	// heap allocation totals at entries allocFrom and allocTo.
	finished atomic.Int64
	allocAt  [2]atomic.Uint64
}

// latHist counts waits in histRes buckets, keeping the rare longer ones
// exactly, so a long run records every wait in fixed memory.
type latHist struct {
	b    []uint32
	over []int64
	n    int64
}

const (
	histRes     = 100    // ns per bucket
	histBuckets = 200000 // 20 ms
)

func (h *latHist) add(ns int64) {
	if h.b == nil {
		h.b = make([]uint32, histBuckets)
	}
	h.n++
	if k := ns / histRes; k >= 0 && k < histBuckets {
		h.b[k]++
		return
	}
	h.over = append(h.over, ns)
}

func (h *latHist) reset() {
	clear(h.b)
	h.over = h.over[:0]
	h.n = 0
}

func (h *latHist) merge(o *latHist) {
	if o.n == 0 {
		return
	}
	if h.b == nil {
		h.b = make([]uint32, histBuckets)
	}
	for k, c := range o.b {
		h.b[k] += c
	}
	h.over = append(h.over, o.over...)
	h.n += o.n
}

// quantileUS is the nearest-rank q-quantile in µs, at bucket midpoints.
func (h *latHist) quantileUS(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(q*float64(h.n-1)) + 1
	var seen int64
	for k, c := range h.b {
		if seen += int64(c); seen >= rank {
			return (float64(k) + 0.5) * histRes / 1e3
		}
	}
	over := append([]int64(nil), h.over...)
	sort.Slice(over, func(i, j int) bool { return over[i] < over[j] })
	return float64(over[rank-seen-1]) / 1e3
}

// windowLat summarizes one client's waits per sub-window of the
// measurement: the run's latency is the mean of the sub-windows'
// percentiles, which moves in proportion to how much of the run the host
// spent in a slow spell, where one percentile over the whole run jumps
// once slow spells pass its rank.
type windowLat struct {
	cur  int64   // the sub-window h holds
	h    latHist // its waits
	sums []winSum
}

type winSum struct {
	n        int64
	p50, p90 float64 // µs
}

func (wl *windowLat) add(k, ns int64) {
	if k != wl.cur {
		wl.flush()
		wl.cur = k
	}
	wl.h.add(ns)
}

func (wl *windowLat) flush() {
	if wl.h.n > 0 {
		wl.sums = append(wl.sums, winSum{wl.h.n, wl.h.quantileUS(0.5), wl.h.quantileUS(0.9)})
		wl.h.reset()
	}
}

// startLive builds, connects and starts the cluster, then runs one cycle
// per client so that every TCP edge is dialed.
func startLive(traced bool, seed int64) (*liveCluster, error) {
	lc := &liveCluster{}
	lc.occupant.Store(-1)
	lc.recFrom.Store(math.MaxInt64)
	transports := make([]*wire.Transport, liveN)
	addrs := make([]string, liveN)
	closeAll := func() {
		for _, tr := range transports {
			if tr != nil {
				_ = tr.Close()
			}
		}
	}
	for i := range transports {
		o := obs.New(obs.Options{})
		tr, err := wire.NewTransport(wire.Config{N: liveN, Local: []int{i}, Obs: o})
		if err != nil {
			closeAll()
			return nil, err
		}
		transports[i], addrs[i] = tr, tr.Addr()
		lc.obs = append(lc.obs, o)
	}
	for _, tr := range transports {
		tr.SetPeers(addrs)
	}
	for i := 0; i < liveN; i++ {
		var t gbrt.Transport = transports[i]
		newNode := harness.RA.Factory()
		newWrap := func(int) wrapper.Level2 { return wrapper.NewTimed(liveDelta.Nanoseconds()) }
		if traced {
			l := &layers{}
			tt := &tracedTransport{inner: transports[i]}
			l.tt, t = tt, tt
			newNode = tracedFactory(harness.RA, func(int) *layers { return l })
			newWrap = func(int) wrapper.Level2 { return &tracedWrapper{wrapper.NewTimed(liveDelta.Nanoseconds()), l} }
			lc.nodes, lc.tts = append(lc.nodes, l), append(lc.tts, tt)
		}
		cl, err := gbrt.NewCluster(gbrt.Config{
			N: liveN, Seed: seed + int64(i), Local: []int{i},
			NewNode:    newNode,
			NewWrapper: newWrap,
			Level1:     wrapper.PhaseGuard{},
			Obs:        lc.obs[i],
			Transport:  t,
		})
		if err != nil {
			closeAll()
			return nil, err
		}
		c := &liveClient{entered: make(chan int64, 1)}
		id := int64(i)
		cl.OnEntry(func(gbrt.Entry) {
			lc.enterCS(id)
			select {
			case c.entered <- nowNS():
			default:
				c.extra.Add(1) // an entry nobody is waiting for
			}
		})
		lc.clusters, lc.clients = append(lc.clusters, cl), append(lc.clients, c)
	}
	for _, cl := range lc.clusters {
		cl.Start()
	}
	abort := make(chan struct{})
	timer := time.AfterFunc(liveStuck, func() { close(abort) })
	defer timer.Stop()
	for i := range lc.clients {
		if err := lc.cycle(i, abort); err != nil {
			lc.stop()
			return nil, fmt.Errorf("live-loopback warm-up: %w", err)
		}
	}
	return lc, nil
}

// enterCS opens client id's CS interval, counting an overlap when another
// is open.
func (lc *liveCluster) enterCS(id int64) {
	if !lc.occupant.CompareAndSwap(-1, id) {
		lc.overlaps.Add(1)
	}
}

// leaveCS closes client id's CS interval.
func (lc *liveCluster) leaveCS(id int64) { lc.occupant.CompareAndSwap(id, -1) }

// cycle runs one request/entry/release cycle of client i.
func (lc *liveCluster) cycle(i int, abort <-chan struct{}) error {
	c, cl := lc.clients[i], lc.clusters[i]
	req := nowNS()
	cl.Request(i)
	var entry int64
	select {
	case entry = <-c.entered:
	case <-abort:
		return fmt.Errorf("client %d: no OnEntry notification within %v", i, liveStuck)
	}
	lc.leaveCS(int64(i))
	cl.Release(i)
	if entry < req {
		c.early++
	}
	if from := lc.recFrom.Load(); req >= from && req < lc.recTo.Load() {
		c.waits.add(entry - req)
		c.windows.add((req-from)/lc.winNS, entry-req)
	}
	if lc.nodes != nil && len(c.spans) < spanCap {
		id := spanIDs.Add(1)
		c.spans = append(c.spans, span{ID: id, Name: "request", Run: id, Start: req, End: entry})
	}
	c.done.Add(1)
	switch lc.finished.Add(1) {
	case allocFrom:
		lc.allocAt[0].Store(allocBytes())
	case allocTo:
		lc.allocAt[1].Store(allocBytes())
	}
	return nil
}

func (lc *liveCluster) stop() {
	for _, cl := range lc.clusters {
		cl.Stop()
	}
}

func (lc *liveCluster) entries() int64 {
	var n int64
	for _, c := range lc.clients {
		n += c.done.Load()
	}
	return n
}

func (lc *liveCluster) counter(name string) int64 {
	var n int64
	for _, o := range lc.obs {
		n += o.Registry().Snapshot().Counter(name)
	}
	return n
}

// liveWindow is one measured stretch of closed-loop load.
type liveWindow struct {
	from, to int64 // measurement start and end stamps
	cpu      int64 // the process's CPU time between them, ns
	entries  int64
	msgs     int64
	allocs   uint64 // heap bytes allocated over allocN entries
	allocN   int64
	stuck    int
}

// rate is the window's entries per CPU second of the process. The process
// keeps about one CPU busy, so this is its rate per wall second less the
// time the hypervisor ran other guests on the VM's vCPUs, which moved the
// wall-time rate by up to 25% between runs a minute apart.
func (w liveWindow) rate() float64 { return ratio(float64(w.entries), float64(w.cpu)/1e9) }

// wallRate is the window's entries per wall second.
func (w liveWindow) wallRate() float64 { return ratio(float64(w.entries), float64(w.to-w.from)/1e9) }

// drive runs every client in its own goroutine, measures seconds of load
// after a warm-up, with waits summarized in one-second sub-windows, then
// stops the clients and waits for them.
func (lc *liveCluster) drive(seconds float64) liveWindow {
	subs := int(seconds)
	if subs < 1 {
		subs = 1
	}
	lc.winNS = int64(seconds / float64(subs) * 1e9)
	var stop atomic.Bool
	abort := make(chan struct{})
	errs := make([]error, len(lc.clients))
	var wg sync.WaitGroup
	for i := range lc.clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for !stop.Load() {
				if err := lc.cycle(i, abort); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	time.Sleep(liveWarmup)
	var w liveWindow
	msgs0, done0 := lc.counter("runtime_msgs_sent_total"), lc.entries()
	a0, c0 := allocBytes(), cpuNS()
	w.from = nowNS()
	lc.recFrom.Store(w.from)
	lc.recTo.Store(math.MaxInt64)
	time.Sleep(time.Duration(seconds * float64(time.Second)))
	w.entries = lc.entries() - done0
	w.to, w.cpu = nowNS(), cpuNS()-c0
	if a1 := lc.allocAt[1].Load(); a1 != 0 {
		w.allocs, w.allocN = a1-lc.allocAt[0].Load(), allocTo-allocFrom
	} else {
		// Too slow a host to reach allocTo: fall back to the window.
		w.allocs, w.allocN = allocBytes()-a0, w.entries
	}
	lc.recTo.Store(w.to)
	w.msgs = lc.counter("runtime_msgs_sent_total") - msgs0
	stop.Store(true)
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(liveStuck):
		close(abort)
		<-finished
	}
	for _, err := range errs {
		if err != nil {
			w.stuck++
		}
	}
	return w
}

// analyze applies the correctness checks to the cluster's clients and
// returns the waits of the requests issued inside the window.
func (lc *liveCluster) analyze(r *result, w liveWindow) *latHist {
	var waits latHist
	for i, c := range lc.clients {
		waits.merge(&c.waits)
		c.windows.flush()
		if x := c.extra.Load(); x > 0 {
			r.fail("live-loopback client %d: %d entries without a waiting request", i, x)
		}
		for k := int64(0); k < c.early; k++ {
			r.fail("live-loopback client %d: an entry was stamped before its request", i)
		}
	}
	r.attempted += waits.n + int64(w.stuck)
	for k := 0; k < w.stuck; k++ {
		r.fail("live-loopback: a client got no OnEntry within %v", liveStuck)
	}
	for k := int64(0); k < lc.overlaps.Load(); k++ {
		r.fail("live-loopback: ME1 violated: a client entered while another's CS interval was open")
	}
	return &waits
}

// windowedUS is the mean, weighted by request count, of every client's
// sub-window p50 and p90 waits, in µs.
func (lc *liveCluster) windowedUS() (p50, p90 float64) {
	var n int64
	for _, c := range lc.clients {
		for _, s := range c.windows.sums {
			n += s.n
			p50 += float64(s.n) * s.p50
			p90 += float64(s.n) * s.p90
		}
	}
	return ratio(p50, float64(n)), ratio(p90, float64(n))
}

func setupLive(o opts) (func(), error) {
	lc, err := startLive(false, o.seed)
	if err != nil {
		return nil, err
	}
	return lc.stop, nil
}

func runLive(o opts) *result {
	r := &result{}
	lc, err := startLive(false, o.seed)
	if err != nil {
		r.attempted++
		r.fail("live-loopback: %v", err)
		return r
	}
	w := lc.drive(o.seconds)
	lc.stop()
	waits := lc.analyze(r, w)
	r.logf("live-loopback: cs_wait_p50_us = %.4g us, cs_wait_p99_us = %.4g us (%d requests)",
		waits.quantileUS(0.5), waits.quantileUS(0.99), waits.n)
	r.logf("live-loopback: entries_per_wall_s = %.6g, process CPU %.3f of wall time", w.wallRate(), float64(w.cpu)/float64(w.to-w.from))
	r.logf("live-loopback: msgs_per_entry = %.4f (%d msgs / %d entries)", ratio(float64(w.msgs), float64(w.entries)), w.msgs, w.entries)
	p50, p90 := lc.windowedUS()
	r.set("entries_per_s", "1/s", w.rate())
	r.set("op_p50_us", "us", p50)
	r.set("op_p90_us", "us", p90)
	r.set("msgs_per_entry", "count", ratio(float64(w.msgs), float64(w.entries)))
	r.logf("live-loopback: alloc_bytes_per_entry over %d entries", w.allocN)
	r.set("alloc_bytes_per_entry", "B", ratio(float64(w.allocs), float64(w.allocN)))
	return r
}

// traceLive measures half the time untraced and half traced, each on a
// fresh cluster, and reports the traced half's per-layer ledger.
func traceLive(o opts) *result {
	r := &result{}
	g := &ledger{workload: "live-loopback", unit: "entry", selfNS: map[string]int64{}}
	var wins [2]liveWindow
	var lc *liveCluster
	var counters map[string]int64
	for k, traced := range []bool{false, true} {
		c0, w0, p0 := cpuNS(), nowNS(), gcPauseNS()
		var err error
		lc, err = startLive(traced, o.seed)
		if err != nil {
			r.attempted++
			r.fail("live-loopback: %v", err)
			return r
		}
		wins[k] = lc.drive(o.seconds / 2)
		// Read before Stop: closing the transports ends their connections.
		counters = map[string]int64{}
		for _, name := range []string{"runtime_msgs_sent_total", "wire_msgs_sent_total", "wire_flushes_total",
			"wire_bytes_sent_total", "wire_conn_errors_total", "wrapper_resend_storm_total"} {
			counters[name] = lc.counter(name)
		}
		lc.stop()
		lc.analyze(r, wins[k])
		// The traced cluster's whole life, set-up to stop, is what its
		// layer totals cover.
		g.cpuNS, g.wallNS, g.pauseNS = cpuNS()-c0, nowNS()-w0, gcPauseNS()-p0
	}
	// Many goroutines run the layers here, at most GOMAXPROCS at a time,
	// so self times are reconciled against the process's CPU time.
	g.basisNS, g.basis = g.cpuNS, "process CPU"
	g.untracedNS = 1e9 / wins[0].rate()
	g.tracedNS = 1e9 / wins[1].rate()
	var wait acc
	var sends, sendNS, cbNS int64
	for i, l := range lc.nodes {
		g.l.merge(l)
		wait.add(l.wait)
		g.spans = append(g.spans, l.spans...)
		g.spans = append(g.spans, lc.clients[i].spans...)
		sends += lc.tts[i].sends.Load()
		sendNS += lc.tts[i].sendNS.Load()
		cbNS += lc.tts[i].callbackNS.Load()
	}
	g.selfNS["ra"], g.selfNS["wrapper"] = g.l.ra.ns, g.l.wrapper.ns
	g.selfNS["wire"], g.selfNS["runtime"] = sendNS, cbNS
	g.layerMetrics(r, 1, float64(counters["runtime_msgs_sent_total"]))
	wireMsgs := counters["wire_msgs_sent_total"]
	r.set("runtime.deliver_ns", "ns", wait.perCall())
	r.set("runtime.msgs_delivered", "count", float64(wait.calls))
	r.set("wire.send_ns", "ns", ratio(float64(sendNS), float64(sends)))
	r.set("wire.msgs_per_flush", "count", ratio(float64(wireMsgs), float64(counters["wire_flushes_total"])))
	r.set("wire.bytes_per_msg", "B", ratio(float64(counters["wire_bytes_sent_total"]), float64(wireMsgs)))
	r.set("wire.conn_errors", "count", float64(counters["wire_conn_errors_total"]))
	r.set("wrapper.storms", "count", float64(counters["wrapper_resend_storm_total"]))
	g.reconcile(r)
	finishTrace(r, g, o.seed)
	return r
}
