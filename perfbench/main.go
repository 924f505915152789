// Command perfbench is the repository benchmark: it runs one named workload
// for a fixed time, checks the program's outputs, and prints every metric
// by name and unit, ending with one JSON result line.
//
//	go run . --workload sim-stabilize --seed 1 --seconds 25 --trace 0
//
// It calls the program only through public constructors (harness.Run,
// harness.RunSharded, sim.New, sim.NewSharded, runtime.NewCluster,
// wire.NewTransport); with --trace 1 it rebuilds the same runs with a
// timing decorator at each layer boundary and reports per-layer metrics
// instead of end-to-end ones. See README.md for the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// opts are one invocation's inputs. maxSamples > 0 stops a sim workload
// after that many samples whatever the time left (tests use it).
type opts struct {
	seed       int64
	seconds    float64
	maxSamples int
}

// result is one workload's outcome: operations attempted and failed, the
// metrics the final JSON line carries, and report lines printed before it.
type result struct {
	attempted, failed int64
	metrics           map[string]metric
	report            []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) set(name, unit string, v float64) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.metrics[name] = metric{v, unit}
}

func (r *result) logf(format string, args ...any) {
	r.report = append(r.report, fmt.Sprintf(format, args...))
}

// fail records one failed check: it counts against failed and is printed.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if r.failed <= 20 {
		r.logf("FAIL: "+format, args...)
	}
}

// benchWorkload is one named workload: its set-up (what a fresh process does
// before the first timed operation), its untraced and traced runs, and its
// GOMAXPROCS (0 = one per CPU).
type benchWorkload struct {
	name  string
	setup func(o opts) (teardown func(), err error)
	run   func(o opts) *result
	trace func(o opts) *result
	procs int
}

var workloads = []benchWorkload{
	{"sim-stabilize", setupStabilize, runStabilize, traceStabilize, 0},
	{"sim-scale", setupScale, runScale, traceScale, 0},
	// One CS is open at a time, so live-loopback's work is one chain of
	// hand-offs between the nodes; on two Ps every hand-off also crosses
	// cores, which measured slower and noisier than one P.
	{"live-loopback", setupLive, runLive, traceLive, 1},
}

// setupProbes is how many fresh processes measure set-up time per run.
const setupProbes = 9

func main() {
	name := flag.String("workload", "", "workload: sim-stabilize, sim-scale, live-loopback, or all of them in turn")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 25, "measurement time in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	probe := flag.Bool("setup-probe", false, "set up the workload, print ready, and exit (used to time set-up)")
	flag.Parse()
	var run []*benchWorkload
	for i := range workloads {
		if *name == "all" || workloads[i].name == *name {
			run = append(run, &workloads[i])
		}
	}
	if len(run) == 0 || (*probe && len(run) != 1) || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (sim-stabilize|sim-scale|live-loopback|all), --seconds > 0 and --trace 0|1\n")
		os.Exit(2)
	}
	o := opts{seed: *seed, seconds: *seconds}
	if *probe {
		w := run[0]
		w.setProcs()
		teardown, err := w.setup(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: setup: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("ready", cpuNS())
		teardown()
		return
	}
	ok := true
	for _, w := range run {
		ok = w.measure(o, *trace == 1) && ok
	}
	if !ok {
		os.Exit(1)
	}
}

func (w *benchWorkload) setProcs() {
	if w.procs > 0 {
		runtime.GOMAXPROCS(w.procs)
	} else {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
}

// measure runs the workload once, prints its report, metrics and JSON
// result line, and reports whether every check passed. When set-up cannot
// be measured it prints no result.
func (w *benchWorkload) measure(o opts, traced bool) bool {
	w.setProcs()
	fmt.Println(envRecord(o.seed))
	var res *result
	if traced {
		res = w.trace(o)
	} else {
		setup, err := probeSetup(w.name, o.seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return false
		}
		res = w.run(o)
		res.set("setup_s", "s", setup)
		res.logf("%s: peak_heap_mb = %.6g MiB", w.name, peakHeapMiB())
		res.logf("%s: failed_ratio %.6f (%d of %d)", w.name, ratio(float64(res.failed), float64(res.attempted)), res.failed, res.attempted)
	}
	for _, l := range res.report {
		fmt.Println(l)
	}
	names := make([]string, 0, len(res.metrics))
	for k := range res.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%s: %s = %.6g %s\n", w.name, k, res.metrics[k].Value, res.metrics[k].Unit)
	}
	correct := res.failed == 0 && res.attempted > 0
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, res.attempted, res.failed, res.metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return false
	}
	fmt.Println(string(line))
	return correct
}

// probeSetup measures set-up time: it starts this binary setupProbes times
// in probe mode and returns the median of the CPU time each child had used,
// from process start, when it was ready for its first timed operation.
// CPU time rather than wall time, because on a shared VM the wall time of
// these few milliseconds mostly measures who else was running.
func probeSetup(name string, seed int64) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, fmt.Errorf("setup probe: %w", err)
	}
	var times []float64
	for i := 0; i < setupProbes; i++ {
		cmd := exec.Command(exe, "--setup-probe", "--workload", name, "--seed", fmt.Sprint(seed))
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return 0, fmt.Errorf("setup probe: %w", err)
		}
		if err := cmd.Start(); err != nil {
			return 0, fmt.Errorf("setup probe: %w", err)
		}
		line, rerr := bufio.NewReader(out).ReadString('\n')
		_, _ = io.Copy(io.Discard, out)
		werr := cmd.Wait()
		var ns int64
		if _, err := fmt.Sscanf(line, "ready %d", &ns); err != nil || rerr != nil || werr != nil {
			return 0, fmt.Errorf("setup probe %d failed: %q: %v", i, line, errors.Join(err, rerr, werr))
		}
		times = append(times, float64(ns)/1e9)
	}
	return median(times), nil
}

// envRecord describes where the numbers were measured.
func envRecord(seed int64) string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
			if s.Key == "vcs.modified" && s.Value == "true" {
				commit += "+dirty"
			}
		}
	}
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("env: go=%s gomaxprocs=%d nproc=%d cpu=%q commit=%s seed=%d",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpu, commit, seed)
}

// peakHeapMiB is the heap's peak footprint: HeapSys only grows (released
// pages stay counted as idle), so at exit it is the largest heap the run
// ever mapped.
func peakHeapMiB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapSys) / (1 << 20)
}
