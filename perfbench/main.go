// Command perfbench is the repository's benchmark. It deploys NDlog
// programs through the public package APIs, drives them to their
// fixpoint and through updates, migrations and crashes, checks every
// result against an independent oracle, and prints end-to-end metrics
// (or, with -trace 1, per-layer metrics) as one JSON object on the last
// line of standard output.
//
//	bash perfbench/run.sh -workload sim-sp-updates -seed 1 -seconds 40 -trace 0
//
// A run repeats its workload's pass (a fixed amount of work, the same
// inputs every time) while the next pass still fits in -seconds, and
// reports the median of each metric over the passes. See README.md for
// the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"ndlog/internal/shard"
)

// workloads maps a workload name to its pass. A pass is a fixed amount
// of work: every run repeats it, so per-pass medians compare across
// commits however fast the program is.
var workloads = map[string]func(r *run) error{
	"sim-sp-updates":    simSPPass,
	"sim-chord":         chordPass,
	"fleet-sp":          func(r *run) error { return fleetPass(r, true) },
	"fleet-sp-noaggsel": func(r *run) error { return fleetPass(r, false) },
}

func main() {
	// A fleet workload re-executes this binary as its shard workers.
	if handled, err := shard.MaybeRunWorker(); handled {
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench worker:", err)
			os.Exit(1)
		}
		return
	}
	workload := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 40, "measurement time budget")
	trace := flag.Int("trace", 0, "1 = report per-layer metrics from a traced run")
	workdir := flag.String("workdir", ".bench_build", "directory for fleet data")
	flag.Parse()

	pass, ok := workloads[*workload]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "usage: perfbench -workload <%s> -seed N -seconds S -trace 0|1\n",
			strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	// Fleet manifests need an absolute data directory.
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err == nil {
		dir, err = filepath.Abs(dir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r := newRun(*seed, *seconds, *trace == 1, dir)
	err = r.execute(pass)
	if rmErr := os.RemoveAll(dir); rmErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", rmErr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := r.report(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// run is one benchmark invocation: its inputs, the samples it has
// recorded, and the oracle checks it has made.
type run struct {
	seed    int64
	seconds float64
	trace   bool
	dir     string
	passes  int

	e2e, layer recorder
	attempted  int
	failed     int
	// facts are a simulated pass's deterministic observations; mismatch
	// lists those a traced pass did not reproduce.
	facts    []string
	mismatch []string
}

func newRun(seed int64, seconds float64, trace bool, dir string) *run {
	return &run{seed: seed, seconds: seconds, trace: trace, dir: dir,
		e2e: recorder{}, layer: recorder{}}
}

// execute repeats pass while the next one is expected to fit in the time
// budget, always running at least one. A traced run first makes one
// untraced reference pass, then profiles every pass it makes.
func (r *run) execute(pass func(*run) error) error {
	start := time.Now()
	var ref *run
	var prof *profiler
	if r.trace {
		ref = newRun(r.seed, r.seconds, false, r.dir)
		if err := pass(ref); err != nil {
			return err
		}
		r.attempted, r.failed = ref.attempted, ref.failed
		var err error
		if prof, err = startProfile(); err != nil {
			return err
		}
	}
	var longest time.Duration
	for {
		t0 := time.Now()
		if err := pass(r); err != nil {
			if prof != nil {
				prof.stop()
			}
			return err
		}
		r.passes++
		longest = max(longest, time.Since(t0))
		if time.Since(start)+longest > time.Duration(r.seconds*float64(time.Second)) {
			break
		}
	}
	if !r.trace {
		return nil
	}
	cpu, err := prof.stop()
	if err != nil {
		return err
	}
	for _, name := range cpuLayerMetrics {
		r.layer.add(name, cpu[name]/float64(r.passes))
	}
	r.layer.add("bench.trace_overhead", r.e2e.value("fixpoint_s")/ref.e2e.value("fixpoint_s"))
	// The first traced pass must reproduce the reference pass exactly.
	for i, want := range ref.facts {
		if i >= len(r.facts) || r.facts[i] != want {
			got := "nothing"
			if i < len(r.facts) {
				got = r.facts[i]
			}
			r.mismatch = append(r.mismatch, fmt.Sprintf("untraced %q, traced %q", want, got))
		}
	}
	return nil
}

// check records one oracle-checked operation. An operation with any
// problem counts as failed.
func (r *run) check(op string, problems []string) {
	r.attempted++
	if len(problems) > 0 {
		r.failed++
		logProblems(op, problems)
	}
}

// checkEach records n oracle-checked operations, each problem being one
// failed operation.
func (r *run) checkEach(op string, n int, problems []string) {
	r.attempted += n
	r.failed += len(problems)
	logProblems(op, problems)
}

// logProblems prints an operation's first problems to standard error.
func logProblems(op string, problems []string) {
	if len(problems) == 0 {
		return
	}
	if len(problems) > 3 {
		problems = append(problems[:3], fmt.Sprintf("... %d more", len(problems)-3))
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s failed its oracle: %s\n", op, strings.Join(problems, "; "))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report prints every metric of the run's kind, one per line, and then
// the result object as the last line.
func (r *run) report(w *os.File) error {
	defs, rec := endToEnd, r.e2e
	if r.trace {
		defs, rec = perLayer, r.layer
	}
	res := result{
		Correct:   r.failed == 0 && r.attempted > 0 && len(r.mismatch) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	for _, m := range r.mismatch {
		fmt.Fprintln(os.Stderr, "perfbench: traced run diverged:", m)
	}
	for _, d := range defs {
		v := rec.value(d.Name)
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
		fmt.Fprintf(w, "%-32s %14.6g %s\n", d.Name, v, d.Unit)
	}
	fmt.Fprintf(w, "# passes=%d attempted=%d failed=%d\n", r.passes, r.attempted, r.failed)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
