package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"ndlog/internal/conform"
	"ndlog/internal/engine"
	"ndlog/internal/funcs"
	"ndlog/internal/parser"
	"ndlog/internal/programs"
	"ndlog/internal/simnet"
)

// The Chord workload. Its ring forms from one landmark under a fixed
// deployment seed, so every run brings up the same ring: bring-up time
// varies by ±25% between deployment seeds, too much for a fixed bound.
// The reserve nodes join in a fixed order too; the run's seed picks the
// lookups, which are asked after the timed phases. Bring-up time grows superlinearly with the ring
// (32 nodes take about 1 s, 48 about 6 s, 64 about 90 s); 32 nodes give
// a run enough passes for a steady median.
const (
	chordNodes      = 32
	chordJoins      = 4  // reserve nodes joining per pass
	chordLookups    = 24 // lookups per batch
	chordBatches    = 5  // lookup batches per pass, after the joins
	chordDeploySeed = 1
	chordDeadline   = 400.0 // virtual seconds allowed for bring-up
	chordJoinLimit  = 60.0  // virtual seconds allowed for a join to settle
	chordAnswerBy   = 2.0   // virtual seconds a lookup has to answer
	chordCheckStep  = 0.5   // virtual seconds between ring checks
	// lookupRoundBase keeps injected lookup ids clear of the round
	// numbers the harness stamps on its own ticks.
	lookupRoundBase = int64(1) << 40
)

// chordPass brings up the ring and checks it, joins chordJoins reserve
// nodes one at a time, checking the ring after each, and then asks and
// checks chordBatches batches of lookups.
func chordPass(r *run) error {
	runtime.LockOSThread() // for threadCPU
	defer runtime.UnlockOSThread()
	opts := conform.DefaultChordOpts(chordDeploySeed)
	opts.Nodes, opts.Reserve = chordNodes, chordJoins
	answers := lookupAnswers{}
	answers.install(&opts.Engine)
	var hooks *simHooks
	if r.trace {
		hooks = &simHooks{}
		hooks.install(&opts.Engine)
	}
	var c *conform.ChordRun
	var preds []string
	runtime.GC()
	for i := 0; i < setupReps; i++ {
		t0 := threadCPU()
		var err error
		if c, err = conform.NewChordRun(opts); err != nil {
			return err
		}
		setup := threadCPU() - t0
		r.e2e.add("setup_s", setup.Seconds())
		// NewChordRun parses and compiles internally; the spans time
		// the same calls made on their own.
		parse, compile, p, err := chordSpans(opts)
		if err != nil {
			return err
		}
		preds = p
		r.layer.add("parser.parse_s", parse.Seconds())
		r.layer.add("engine.compile_s", compile.Seconds())
		r.layer.add("simnet.deploy_s", max(setup-parse-compile, 0).Seconds())
	}
	sim := c.Net.Sim
	if hooks != nil {
		*hooks = simHooks{} // count the deployment that runs, not the set-ups
	}

	runtime.GC()
	mem0 := memSnapshot()
	fix, cpu, events, ok := awaitRing(r, c, chordDeadline)
	r.check("chord bring-up", ringProblems(ok, c, "bring-up"))
	r.e2e.add("fixpoint_s", fix.Seconds())
	r.e2e.add("cpu_s", cpu.Seconds())
	r.e2e.add("net_mb", float64(sim.Bytes())/1e6)
	r.layer.add("simnet.events", float64(events))
	r.recordSim(sim, c.Net.Cluster, preds)
	if r.trace {
		r.recordAlloc(mem0, memSnapshot())
		hooks.record(r)
	}
	r.e2e.add("mem_mb", liveHeapMB())
	r.fact("ring", sim, c.Net.Cluster.Tuples("bestSucc"))

	rng := rand.New(rand.NewSource(r.seed))
	live := append([]string(nil), c.Names[:chordNodes]...)
	round, answered := lookupRoundBase, 0
	lookups := func(label string) {
		samples := make([]conform.LookupSample, chordLookups)
		for i := range samples {
			round++
			samples[i] = conform.LookupSample{Node: live[rng.Intn(len(live))], Key: rng.Int63n(funcs.RingSize), Round: round}
			c.Net.Inject(samples[i].Node, engine.Insert(programs.LookupFact(samples[i].Node, samples[i].Key, round)))
		}
		c.RunUntil(sim.Now() + chordAnswerBy)
		t0 := time.Now()
		problems := answers.check(c, samples)
		r.layer.add("bench.oracle_s", time.Since(t0).Seconds())
		answered += len(samples) - len(problems)
		r.checkEach(label, len(samples), problems)
	}
	for _, n := range c.Names[chordNodes:] {
		runtime.GC()
		c.Join(n)
		live = append(live, n)
		d, _, _, ok := awaitRing(r, c, sim.Now()+chordJoinLimit)
		r.check("chord join of "+n, ringProblems(ok, c, "join of "+n))
		r.e2e.add("update_s", d.Seconds())
	}
	// Lookups come last: their rows would otherwise be part of the state
	// the joins work on, and the timed joins would depend on the seed.
	for i := 0; i < chordBatches; i++ {
		lookups(fmt.Sprintf("chord lookups, batch %d", i))
	}
	r.layer.add("chord.lookups_ok", float64(answered))
	r.fact("joins", sim, c.Net.Cluster.Tuples("bestSucc"))
	return nil
}

// lookupAnswers records the first answer each requester receives, as a
// client would: it sees a lookupRes row when the row is stored. Polling
// the table instead (ChordRun.CheckLookups) misses answers: a stored
// answer can disappear long before its lifetime ends, so within the
// answer window some answers appear and vanish between two polls.
type lookupAnswers map[conform.LookupSample]string

func (a lookupAnswers) install(o *engine.Options) {
	prev := o.OnStore
	o.OnStore = func(node string, d engine.Delta, now float64) {
		if prev != nil {
			prev(node, d, now)
		}
		// lookupRes(@R, K, @S, SI, Q)
		if f := d.Tuple.Fields; d.Sign > 0 && d.Tuple.Pred == "lookupRes" {
			k := conform.LookupSample{Node: node, Key: f[1].Int(), Round: f[4].Int()}
			if _, ok := a[k]; !ok {
				a[k] = f[2].Addr()
			}
		}
	}
}

// check returns one problem per lookup that got no answer or whose first
// answer is not the oracle's true successor.
func (a lookupAnswers) check(c *conform.ChordRun, samples []conform.LookupSample) []string {
	var problems []string
	for _, s := range samples {
		got, ok := a[s]
		want := c.TrueSuccessor(s.Key)
		switch {
		case !ok:
			problems = append(problems, fmt.Sprintf("lookup %d at %s: no answer within %gs", s.Key, s.Node, chordAnswerBy))
		case got != want:
			problems = append(problems, fmt.Sprintf("lookup %d at %s: resolved %s, oracle %s", s.Key, s.Node, got, want))
		}
	}
	return problems
}

// awaitRing advances virtual time chordCheckStep at a time until the
// ring invariant holds or the deadline passes. It returns the thread and
// process CPU time spent simulating, without the oracle's checks, and the
// number of simulator events.
func awaitRing(r *run, c *conform.ChordRun, deadline float64) (thread, cpu time.Duration, events int, ok bool) {
	for {
		t0, c0 := threadCPU(), cpuTime()
		events += c.Net.Sim.Run(c.Net.Sim.Now() + chordCheckStep)
		thread += threadCPU() - t0
		cpu += cpuTime() - c0
		t1 := time.Now()
		ok = len(c.CheckRing()) == 0
		r.layer.add("bench.oracle_s", time.Since(t1).Seconds())
		if ok || c.Net.Sim.Now() >= deadline {
			return thread, cpu, events, ok
		}
	}
}

func ringProblems(ok bool, c *conform.ChordRun, what string) []string {
	if ok {
		return nil
	}
	return append([]string{fmt.Sprintf("ring invariant broken %gs after %s", c.Net.Sim.Now(), what)}, c.CheckRing()...)
}

// chordSpans times parsing and compiling the Chord program, the two
// steps NewChordRun performs before it deploys, and lists its tables.
func chordSpans(o conform.ChordOpts) (parse, compile time.Duration, preds []string, err error) {
	t0 := threadCPU()
	prog, err := parser.Parse(programs.Chord(o.Cfg))
	if err != nil {
		return 0, 0, nil, err
	}
	t1 := threadCPU()
	if _, err := engine.NewCluster(simnet.New(o.Seed), prog, engine.Options{}, engine.ClusterConfig{ProcDelay: 0.001}); err != nil {
		return 0, 0, nil, err
	}
	t2 := threadCPU()
	for _, t := range prog.Materialized {
		preds = append(preds, t.Name)
	}
	return t1 - t0, t2 - t1, preds, nil
}
