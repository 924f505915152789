package main

import (
	"bytes"
	"math/rand"
	"os"
	"time"

	"github.com/graybox-stabilization/graybox/internal/harness"
	"github.com/graybox-stabilization/graybox/internal/obs"
	"github.com/graybox-stabilization/graybox/internal/sim"
	"github.com/graybox-stabilization/graybox/internal/workload"
	"github.com/graybox-stabilization/graybox/internal/wrapper"
)

// sim-scale is E17's shape on two cores: N=16, two shards (one per core),
// 64 client loops of scaleLoops loops each, every 5th a cross-shard hme
// acquisition, W' δ=200, fault-free, no monitors. The horizon is never
// reached: a run ends when every client has finished. A sample is one pass
// over scaleSeeds runs drawn from --seed.
const (
	scaleSeeds   = 8
	scaleShards  = 2
	scaleN       = 16
	scaleClients = 64
	scaleLoops   = 50
	scaleWindow  = 64 // sim.ShardedConfig's default barrier window
)

func scaleConfigs(seed int64) []harness.ShardedRunConfig {
	rng := rand.New(rand.NewSource(seed))
	cfgs := make([]harness.ShardedRunConfig, scaleSeeds)
	for k := range cfgs {
		cfgs[k] = harness.ShardedRunConfig{
			Algo: harness.RA, N: scaleN, Shards: scaleShards, Clients: scaleClients,
			Seed:       rng.Int63(),
			Delta:      200,
			CrossEvery: 5,
			MaxLoops:   scaleLoops,
			Horizon:    1 << 40,
		}
	}
	return cfgs
}

// scaleRun is what one sharded run determines exactly.
type scaleRun struct {
	entries, done, inFlight                 int
	events, msgs, wrapMsgs, cross, ord, aud int64
	storms                                  int64
}

func summarizeScale(r harness.ShardedRunResult) scaleRun {
	s := scaleRun{
		entries: r.Entries, done: r.ClientsDone, inFlight: r.InFlight,
		events: r.Events, cross: r.CrossAcquisitions,
		ord: r.OrderViolations, aud: r.AuditViolations,
	}
	for _, snap := range r.ShardObs {
		s.msgs += snap.Counter("sim_msgs_program_total") + snap.Counter("sim_msgs_wrapper_total")
		s.wrapMsgs += snap.Counter("sim_msgs_wrapper_total")
		s.storms += snap.Counter("wrapper_resend_storm_total")
	}
	return s
}

// checkScale: zero hme order and audit violations, nothing in flight, and
// every client finished its loops.
func checkScale(r *result, seed int64, s scaleRun) {
	if s.ord != 0 || s.aud != 0 || s.inFlight != 0 || s.done != scaleClients || s.cross == 0 {
		r.fail("sim-scale seed %d: %d order / %d audit violations, %d in flight, %d/%d clients done, %d cross acquisitions",
			seed, s.ord, s.aud, s.inFlight, s.done, scaleClients, s.cross)
	}
}

// quietStderr silences the program's per-wrapper resend-storm warnings,
// which the sim workloads trigger on most runs (δ sits below the queueing
// wait by design: W' at δ=5 on sim-stabilize, δ=200 on sim-scale);
// wrapper.storms counts them instead. It returns the restore function.
func quietStderr() func() {
	null, err := os.Open(os.DevNull)
	if err != nil {
		return func() {}
	}
	saved := os.Stderr
	os.Stderr = null
	return func() {
		os.Stderr = saved
		null.Close()
	}
}

func setupScale(o opts) (func(), error) {
	_ = scaleConfigs(o.seed)
	return func() {}, nil
}

func runScale(o opts) *result {
	defer quietStderr()()
	r := &result{}
	cfgs := scaleConfigs(o.seed)
	first := make([]scaleRun, len(cfgs))
	var entries, msgs, events int64
	// Each run's time is its mean over the timed samples, as on
	// sim-stabilize.
	runNS := make([]int64, len(cfgs))
	t := newTimedSamples(o)
	for sample := 0; ; sample++ {
		t.begin(sample)
		for k, cfg := range cfgs {
			r0 := cpuNS()
			res := harness.RunSharded(cfg)
			if t.timed(sample) {
				runNS[k] += cpuNS() - r0
			}
			s := summarizeScale(res)
			r.attempted++
			checkScale(r, cfg.Seed, s)
			if sample == 0 {
				first[k] = s
				entries += int64(s.entries)
				msgs += s.msgs
				events += s.events
			} else if s != first[k] {
				r.fail("sim-scale seed %d: sample %d differs from sample 0", cfg.Seed, sample)
			}
		}
		if t.end(sample) {
			break
		}
	}
	n := float64(t.n)
	runUS := make([]float64, len(runNS))
	for i, ns := range runNS {
		runUS[i] = float64(ns) / 1e3 / n
	}
	r.logf("sim-scale: msgs_per_entry = %.6f (exact: %d msgs / %d entries)", ratio(float64(msgs), float64(entries)), msgs, entries)
	r.logf("sim-scale: sim_events_per_s = %.6g per CPU second (%d timed samples of %d runs)", float64(events)*n/t.cpuS(), t.n, len(cfgs))
	r.set("entries_per_s", "1/s", float64(entries)*n/t.cpuS())
	r.set("op_p50_us", "us", quantile(runUS, 0.5))
	r.set("op_p90_us", "us", quantile(runUS, 0.9))
	r.set("msgs_per_entry", "count", ratio(float64(msgs), float64(entries)))
	r.set("alloc_bytes_per_entry", "B", ratio(float64(t.allocs), float64(entries)*n))
	return r
}

// shardClock measures one shard core's busy time from its per-event
// observer: the gap between two events of one barrier window is time the
// core spent on the later event. The first event of each window has no
// earlier stamp in that window and is left out.
type shardClock struct {
	last, busy, window int64
}

func (c *shardClock) observe(s *sim.Sim) {
	t := nowNS()
	w := (s.Now() + scaleWindow - 1) / scaleWindow
	if w == c.window {
		c.busy += t - c.last
	}
	c.last, c.window = t, w
}

// scaleTraced rebuilds harness.RunSharded for one config from
// sim.NewSharded, with per-shard accumulators so the parallel shard cores
// never share one.
func scaleTraced(cfg harness.ShardedRunConfig, shards []*layers, clocks []*shardClock) (harness.ShardedRunResult, int64) {
	t0 := nowNS()
	spec := workload.DefaultSpec()
	for i := range spec.Cohorts {
		spec.Cohorts[i].Skew = workload.Skew{Resources: cfg.Shards, S: 1.2}
	}
	src := workload.NewGen(spec, cfg.Seed+100, cfg.Clients)
	coord := obs.New(obs.Options{})
	shardObs := make([]*obs.Obs, cfg.Shards)
	delta := cfg.Delta
	sh := sim.NewSharded(sim.ShardedConfig{
		Shards:  cfg.Shards,
		N:       cfg.N,
		Clients: cfg.Clients,
		Seed:    cfg.Seed,
		// NewSharded builds shard 0's nodes first, then shard 1's.
		NewNode:    tracedFactory(cfg.Algo, func(k int) *layers { return shards[k/cfg.N] }),
		Level1:     wrapper.PhaseGuard{},
		MaxLoops:   cfg.MaxLoops,
		CrossEvery: cfg.CrossEvery,
		NewClient:  func(c int) sim.ShardClient { return src.Client(c) },
		Obs:        coord,
		NewShardObs: func(s int) *obs.Obs {
			shardObs[s] = obs.New(obs.Options{})
			return shardObs[s]
		},
		NewWrapper: func(s, id int) wrapper.Level2 {
			return &tracedWrapper{wrapper.NewTimed(delta), shards[s]}
		},
		WrapperEvery: delta,
	})
	for s := 0; s < cfg.Shards; s++ {
		c := clocks[s]
		c.window = -1
		sh.Shard(s).SetObserver(c.observe)
	}
	setup := nowNS() - t0
	sh.Run(cfg.Horizon)
	res := harness.ShardedRunResult{
		EntriesByShard: make([]int, cfg.Shards),
		ClientsDone:    sh.LoopsDone(),
		Events:         sh.Events(),
		InFlight:       sh.Monitor().InFlight(),
		Obs:            coord.Registry().Snapshot(),
		ShardObs:       make([]*obs.Snapshot, cfg.Shards),
	}
	for s := 0; s < cfg.Shards; s++ {
		res.ShardObs[s] = shardObs[s].Registry().Snapshot()
		res.EntriesByShard[s] = int(res.ShardObs[s].Counter("sim_cs_entries_total"))
		res.Entries += res.EntriesByShard[s]
	}
	res.CrossAcquisitions = res.Obs.Counter("hme_acquisitions_total")
	res.OrderViolations = res.Obs.Counter("hme_order_violations_total")
	res.AuditViolations = res.Obs.Counter("hme_audit_violations_total")
	return res, setup
}

func traceScale(o opts) *result {
	defer quietStderr()()
	r := &result{}
	cfgs := scaleConfigs(o.seed)
	g := &ledger{workload: "sim-scale", unit: "sample", selfNS: map[string]int64{}}
	shards := make([]*layers, scaleShards)
	clocks := make([]*shardClock, scaleShards)
	for s := range shards {
		shards[s], clocks[s] = &layers{}, &shardClock{}
	}
	var untraced, traced []float64
	var allocs uint64
	var setupNS, samples, events, msgs, cross, ord, aud, storms int64
	start := time.Now()
	for sample := 0; ; sample++ {
		want := make([][]byte, len(cfgs))
		t0 := time.Now()
		for k, cfg := range cfgs {
			want[k] = harness.RunSharded(cfg).MetricsJSON()
		}
		untraced = append(untraced, float64(time.Since(t0).Nanoseconds()))

		c0, w0, p0 := cpuNS(), nowNS(), gcPauseNS()
		for k, cfg := range cfgs {
			a0 := allocBytes()
			res, setup := scaleTraced(cfg, shards, clocks)
			allocs += allocBytes() - a0
			setupNS += setup
			r.attempted++
			s := summarizeScale(res)
			checkScale(r, cfg.Seed, s)
			if sample == 0 {
				events += s.events
				msgs += s.msgs
				cross += s.cross
				ord += s.ord
				aud += s.aud
				storms += s.storms
			}
			if !bytes.Equal(res.MetricsJSON(), want[k]) {
				r.fail("sim-scale seed %d: traced obs snapshots differ from harness.RunSharded", cfg.Seed)
			}
		}
		w1 := nowNS()
		g.cpuNS += cpuNS() - c0
		g.wallNS += w1 - w0
		g.pauseNS += gcPauseNS() - p0
		traced = append(traced, float64(w1-w0))
		samples++
		if (o.maxSamples > 0 && sample+1 >= o.maxSamples) || time.Since(start).Seconds() >= o.seconds {
			break
		}
	}
	g.untracedNS, g.tracedNS = median(untraced), median(traced)
	var busy, maxBusy int64
	for s, l := range shards {
		g.l.merge(l)
		g.spans = append(g.spans, l.spans...)
		b := clocks[s].busy
		busy += b
		if b > maxBusy {
			maxBusy = b
		}
	}
	children := g.l.ra.ns + g.l.lamport.ns + g.l.wrapper.ns
	// The shard cores run their layers side by side, so each core-layer's
	// share of wall time is its time summed over cores divided by the core
	// count; the residue is then the serial coordinator, the barriers, and
	// cores idling on a slower peer.
	g.selfNS["engine"] = (busy - children) / scaleShards
	g.selfNS["ra"], g.selfNS["wrapper"] = g.l.ra.ns/scaleShards, g.l.wrapper.ns/scaleShards
	g.selfNS["harness"] = setupNS
	g.basisNS, g.basis = g.wallNS, "wall (shard-core layers / 2 cores)"
	n := float64(samples)
	g.layerMetrics(r, n, float64(msgs))
	r.set("engine.events", "count", float64(events))
	r.set("engine.self_ns_per_event", "ns", ratio(float64(busy-children), float64(events)*n))
	r.set("engine.alloc_bytes_per_event", "B", ratio(float64(allocs), float64(events)*n))
	r.set("engine.shard_busy_skew", "ratio", ratio(float64(maxBusy), float64(busy)/scaleShards))
	r.set("harness.setup_ns_per_run", "ns", ratio(float64(setupNS), float64(r.attempted)))
	r.set("wrapper.storms", "count", float64(storms))
	r.set("hme.acquisitions", "count", float64(cross))
	r.set("hme.order_violations", "count", float64(ord))
	r.set("hme.audit_violations", "count", float64(aud))
	g.reconcile(r)
	finishTrace(r, g, o.seed)
	return r
}
