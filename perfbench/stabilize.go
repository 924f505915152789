package main

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"github.com/graybox-stabilization/graybox/internal/fault"
	"github.com/graybox-stabilization/graybox/internal/harness"
	"github.com/graybox-stabilization/graybox/internal/lspec"
	"github.com/graybox-stabilization/graybox/internal/obs"
	"github.com/graybox-stabilization/graybox/internal/sim"
	"github.com/graybox-stabilization/graybox/internal/wrapper"
)

// sim-stabilize is the paper's E2 and E4: W' (δ=5) over RA and Lamport
// (alternating), N=4, two bursts of 10 mixed faults, monitors on; every
// deadlockEvery-th pair of seeds (one RA, one Lamport) runs the §4 deadlock
// scenario instead. A sample is one pass over a fixed list of stabSeeds
// seeded runs drawn from --seed: about 2 CPU seconds, so a run times
// several.
const (
	stabSeeds     = 200
	deadlockEvery = 8
)

func stabConfigs(seed int64, n int) []harness.RunConfig {
	rng := rand.New(rand.NewSource(seed))
	cfgs := make([]harness.RunConfig, n)
	for k := range cfgs {
		c := harness.RunConfig{
			Algo: harness.RA, N: 4,
			Seed: rng.Int63(), FaultSeed: rng.Int63(),
			Delta:       5,
			MaxRequests: 30,
			Horizon:     20000,
			Monitor:     true,
		}
		if k%2 == 1 {
			c.Algo = harness.Lamport
		}
		if k/2%deadlockEvery == deadlockEvery-1 {
			c.DeadlockFault = true
		} else {
			c.FaultTimes, c.FaultsPerBurst = []int64{200, 300}, 10
		}
		cfgs[k] = c
	}
	return cfgs
}

// stabRun is what one seeded run determines exactly; every sample must
// reproduce the first one's values.
type stabRun struct {
	converged                              bool
	entries, msgs, wrapMsgs, starved       int
	events, conv, recovery, faults, storms int64
}

func summarizeStab(r harness.RunResult) stabRun {
	s := stabRun{
		converged: r.Converged,
		entries:   r.Entries,
		msgs:      r.ProgramMsgs + r.WrapperMsgs,
		wrapMsgs:  r.WrapperMsgs,
		starved:   len(r.Starved),
		events:    r.Obs.Counter("sim_events_total"),
		conv:      r.ConvergenceTime,
		recovery:  -1,
		faults:    r.Obs.Counter("fault_injected_total"),
		storms:    r.Obs.Counter("wrapper_resend_storm_total"),
	}
	if r.FirstEntryAfterFault >= 0 {
		s.recovery = r.FirstEntryAfterFault - r.LastFault
	}
	return s
}

// checkStab applies the monitors' verdicts: converged (no starved or stuck
// eater, progress after the last fault), and deadlock runs re-enter with
// every process served.
func checkStab(r *result, cfg harness.RunConfig, s stabRun) {
	if !s.converged {
		r.fail("sim-stabilize seed %d (%s): not converged, %d starved", cfg.Seed, cfg.Algo, s.starved)
	}
	if cfg.DeadlockFault && (s.recovery < 0 || s.entries < cfg.N) {
		r.fail("sim-stabilize seed %d (%s): deadlock not broken (%d entries)", cfg.Seed, cfg.Algo, s.entries)
	}
}

// stabExact is the sample's simulated metrics: exact, and the same for
// every sample and every sample count.
type stabExact struct {
	entries, msgs, events, faults, storms int64
	conv, recovery                        []int64
}

func (e *stabExact) add(cfg harness.RunConfig, s stabRun) {
	e.entries += int64(s.entries)
	e.msgs += int64(s.msgs)
	e.events += s.events
	e.faults += s.faults
	e.storms += s.storms
	if cfg.DeadlockFault {
		e.recovery = append(e.recovery, s.recovery)
	} else {
		e.conv = append(e.conv, s.conv)
	}
}

func (e *stabExact) report(r *result) {
	r.logf("sim-stabilize: conv_ticks_p50 = %d ticks, conv_ticks_p95 = %d ticks, recovery_ticks_p50 = %d ticks (exact)",
		rankInt(e.conv, 0.5), rankInt(e.conv, 0.95), rankInt(e.recovery, 0.5))
	r.logf("sim-stabilize: msgs_per_entry = %.6f (exact: %d msgs / %d entries)",
		ratio(float64(e.msgs), float64(e.entries)), e.msgs, e.entries)
}

func setupStabilize(o opts) (func(), error) {
	_ = stabConfigs(o.seed, stabSeeds)
	return func() {}, nil
}

// stabWorkers run a sample's pairs side by side, one per core (the two
// cores sim-scale's shards use). On a shared VM each vCPU has its own slow
// and fast spells as well as the host's common ones; a single thread's CPU
// time follows the spells of whichever vCPU it sits on, while two busy
// threads average both.
const stabWorkers = 2

func runStabilize(o opts) *result {
	defer quietStderr()()
	r := &result{}
	cfgs := stabConfigs(o.seed, stabSeeds)
	first := make([]stabRun, len(cfgs))
	got := make([]stabRun, len(cfgs))
	var exact stabExact
	// An operation is one pair of runs, RA then Lamport at one position of
	// the seed list: single runs of the two algorithms form two clusters of
	// run times, and a quantile falling between them jumps with small
	// shifts of either. Each pair's time is its thread's CPU time, averaged
	// over the timed samples, so the quantiles spread over the seed list's
	// pairs, not over the host's slow and fast spells.
	pairNS := make([]int64, len(cfgs)/2)
	t := newTimedSamples(o)
	for sample := 0; ; sample++ {
		t.begin(sample)
		var wg sync.WaitGroup
		for w := 0; w < stabWorkers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
				// Workers swap pairs every sample, so each pair's mean
				// covers both threads.
				for p := (w + sample) % stabWorkers; p < len(pairNS); p += stabWorkers {
					t0 := threadCPUNS()
					for k := 2 * p; k < 2*p+2; k++ {
						got[k] = summarizeStab(harness.Run(cfgs[k]))
					}
					if t.timed(sample) {
						pairNS[p] += threadCPUNS() - t0
					}
				}
			}(w)
		}
		wg.Wait()
		for k, cfg := range cfgs {
			r.attempted++
			checkStab(r, cfg, got[k])
			if sample == 0 {
				first[k] = got[k]
				exact.add(cfg, got[k])
			} else if got[k] != first[k] {
				r.fail("sim-stabilize seed %d: sample %d differs from sample 0", cfg.Seed, sample)
			}
		}
		if t.end(sample) {
			break
		}
	}
	n := float64(t.n)
	pairUS := make([]float64, len(pairNS))
	for i, ns := range pairNS {
		pairUS[i] = float64(ns) / 1e3 / n
	}
	exact.report(r)
	r.logf("sim-stabilize: runs_per_s = %.6g, sim_events_per_s = %.6g per CPU second (%d timed samples of %d runs)",
		float64(len(cfgs))*n/t.cpuS(), float64(exact.events)*n/t.cpuS(), t.n, len(cfgs))
	r.set("entries_per_s", "1/s", float64(exact.entries)*n/t.cpuS())
	r.set("op_p50_us", "us", quantile(pairUS, 0.5))
	r.set("op_p90_us", "us", quantile(pairUS, 0.9))
	r.set("msgs_per_entry", "count", ratio(float64(exact.msgs), float64(exact.entries)))
	r.set("alloc_bytes_per_entry", "B", ratio(float64(t.allocs), float64(exact.entries)*n))
	return r
}

// stabTraced rebuilds harness.RunObserved for one config from sim.New with a
// timing decorator at every layer boundary. Its obs snapshot must equal
// the untraced run's byte for byte.
func stabTraced(cfg harness.RunConfig, l *layers, self map[string]int64) harness.RunResult {
	runID := spanIDs.Add(1)
	l.parent = runID
	t0 := nowNS()
	o := obs.New(obs.Options{})
	simCfg := sim.Config{
		N:           cfg.N,
		Seed:        cfg.Seed,
		NewNode:     tracedFactory(cfg.Algo, func(int) *layers { return l }),
		Workload:    true,
		MaxRequests: cfg.MaxRequests,
		Obs:         o,
	}
	if cfg.DeadlockFault {
		simCfg.ThinkMin, simCfg.ThinkMax = cfg.Horizon+1, cfg.Horizon+2
	}
	delta := cfg.Delta
	simCfg.NewWrapper = func(int) wrapper.Level2 { return &tracedWrapper{wrapper.NewTimed(delta), l} }
	if delta > 1 {
		simCfg.WrapperEvery = delta
	}
	s := sim.New(simCfg)
	mon := lspec.New(cfg.N)
	mon.Instrument(o)
	s.SetObserver(tracedObserver(mon.AsObserver(), l))
	if cfg.DeadlockFault {
		s.At(10, func(s *sim.Sim) {
			for i := 0; i < s.N(); i++ {
				s.Request(i)
			}
		})
		s.At(11, func(s *sim.Sim) { fault.DropAllInFlight(s) })
	}
	if len(cfg.FaultTimes) > 0 && cfg.FaultsPerBurst > 0 {
		in := fault.NewInjector(cfg.FaultSeed, fault.DefaultMix, fault.Options{})
		in.Schedule(s, cfg.FaultTimes, cfg.FaultsPerBurst)
	}
	before := l.ra.ns + l.lamport.ns + l.wrapper.ns + l.lspec.ns
	t1 := nowNS()
	s.Run(cfg.Horizon)
	t2 := nowNS()
	children := l.ra.ns + l.lamport.ns + l.wrapper.ns + l.lspec.ns - before
	l.span("engine.run", spanIDs.Add(1), t1, t2)

	conv := o.Convergence()
	snap := o.Registry().Snapshot()
	res := harness.RunResult{
		LastFault:            conv.LastFault(),
		LastViolation:        conv.LastViolation(),
		ConvergenceTime:      conv.Time(),
		FirstEntryAfterFault: conv.FirstProgressAfterFault(),
		Entries:              int(snap.Counter("sim_cs_entries_total")),
		EntriesAfterFault:    int(conv.ProgressAfterFault()),
		ProgramMsgs:          int(snap.Counter("sim_msgs_program_total")),
		WrapperMsgs:          int(snap.Counter("sim_msgs_wrapper_total")),
		Starved:              mon.StarvedProcesses(),
		Obs:                  snap,
	}
	res.Converged = len(res.Starved) == 0 && len(mon.StuckEaters()) == 0 && res.EntriesAfterFault > 0
	t3 := nowNS()
	l.parent = 0
	l.span("harness.run", runID, t0, t3)
	self["engine"] += t2 - t1 - children
	self["harness"] += (t1 - t0) + (t3 - t2)
	return res
}

func snapJSON(s *obs.Snapshot) []byte {
	var b bytes.Buffer
	_ = s.WriteJSON(&b) // a bytes.Buffer write cannot fail
	return b.Bytes()
}

// traceStabilize alternates untraced and traced passes over the seed list,
// checks every traced snapshot against the untraced one, and reports the
// per-layer ledger of the traced passes.
func traceStabilize(o opts) *result {
	defer quietStderr()()
	r := &result{}
	cfgs := stabConfigs(o.seed, stabSeeds)
	g := &ledger{workload: "sim-stabilize", unit: "sample", selfNS: map[string]int64{}}
	var exact stabExact
	var untraced, traced []float64
	var allocs uint64
	var setupNS, samples int64
	start := time.Now()
	for sample := 0; ; sample++ {
		want := make([][]byte, len(cfgs))
		t0 := time.Now()
		for k, cfg := range cfgs {
			want[k] = snapJSON(harness.Run(cfg).Obs)
		}
		untraced = append(untraced, float64(time.Since(t0).Nanoseconds()))

		c0, w0, p0 := cpuNS(), nowNS(), gcPauseNS()
		for k, cfg := range cfgs {
			g.l.run = int64(k)
			h0 := g.selfNS["harness"]
			a0 := allocBytes()
			res := stabTraced(cfg, &g.l, g.selfNS)
			allocs += allocBytes() - a0
			setupNS += g.selfNS["harness"] - h0
			r.attempted++
			s := summarizeStab(res)
			checkStab(r, cfg, s)
			if sample == 0 {
				exact.add(cfg, s)
			}
			if !bytes.Equal(snapJSON(res.Obs), want[k]) {
				r.fail("sim-stabilize seed %d: traced obs snapshot differs from harness.Run", cfg.Seed)
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
	g.selfNS["ra"], g.selfNS["lamport"] = g.l.ra.ns, g.l.lamport.ns
	g.selfNS["wrapper"], g.selfNS["lspec"] = g.l.wrapper.ns, g.l.lspec.ns
	g.spans = g.l.spans
	// One goroutine runs every layer here, so their self times add up to
	// wall time.
	g.basisNS, g.basis = g.wallNS, "wall"
	n := float64(samples)
	g.layerMetrics(r, n, float64(exact.msgs))
	r.set("engine.events", "count", float64(exact.events))
	r.set("engine.self_ns_per_event", "ns", ratio(float64(g.selfNS["engine"]), float64(exact.events)*n))
	r.set("engine.alloc_bytes_per_event", "B", ratio(float64(allocs), float64(exact.events)*n))
	r.set("harness.setup_ns_per_run", "ns", ratio(float64(setupNS), float64(r.attempted)))
	r.set("wrapper.storms", "count", float64(exact.storms))
	r.set("wrapper.conv_ticks_p50", "ticks", float64(rankInt(exact.conv, 0.5)))
	r.set("wrapper.conv_ticks_p95", "ticks", float64(rankInt(exact.conv, 0.95)))
	r.set("wrapper.recovery_ticks_p50", "ticks", float64(rankInt(exact.recovery, 0.5)))
	r.set("fault.injected", "count", float64(exact.faults))
	g.reconcile(r)
	finishTrace(r, g, o.seed)
	return r
}
