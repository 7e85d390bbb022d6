package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"ndlog/internal/engine"
	"ndlog/internal/experiments"
	"ndlog/internal/parser"
	"ndlog/internal/programs"
	"ndlog/internal/simnet"
	"ndlog/internal/topology"
)

// Figure 13 at paper scale: the 100-node transit-stub overlay, DV
// shortest path under the Random metric with aggregate selections, and
// bursts that change 10% of link costs by up to ±10%.
const (
	spGroups    = 10    // bursts per sweep; each changes 1/spGroups (10%) of the links
	spMaxDelta  = 0.10  // bound on a link's relative cost change
	spProcDelay = 0.002 // per-message sender cost (experiments.Default)
	setupReps   = 10    // deployments built at the start of a sim pass; the last one runs
	maxEvents   = 50_000_000
)

// simHooks counts the engine's derivations and table changes through
// the OnDerive/OnStore callbacks. They are installed on traced runs only.
type simHooks struct{ derivations, stores, retracts int64 }

func (h *simHooks) install(o *engine.Options) {
	prevDerive, prevStore := o.OnDerive, o.OnStore
	o.OnDerive = func(node, rule string, d engine.Delta) {
		if prevDerive != nil {
			prevDerive(node, rule, d)
		}
		h.derivations++
	}
	o.OnStore = func(node string, d engine.Delta, now float64) {
		if prevStore != nil {
			prevStore(node, d, now)
		}
		if d.Sign < 0 {
			h.retracts++
		} else {
			h.stores++
		}
	}
}

// record reports the counts as per-layer metrics.
func (h *simHooks) record(r *run) {
	r.layer.add("engine.derivations", float64(h.derivations))
	r.layer.add("engine.stores", float64(h.stores))
	r.layer.add("engine.retracts", float64(h.retracts))
	if h.derivations > 0 {
		r.layer.add("engine.store_ratio", float64(h.stores)/float64(h.derivations))
	}
}

// spDeployment is one simulated shortest-path deployment.
type spDeployment struct {
	overlay *topology.Overlay
	sim     *simnet.Sim
	cluster *engine.Cluster
	preds   []string
	hooks   *simHooks
}

// deploySP parses, compiles and deploys the Figure 13 program, timing
// each step (in thread CPU time) as the per-layer setup spans.
func deploySP(r *run) (*spDeployment, error) {
	cfg := experiments.Default()
	o := experiments.BuildOverlay(cfg)
	start := threadCPU()
	prog, err := parser.Parse(programs.ShortestPathDV(""))
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	parsed := threadCPU()
	for _, l := range o.Links {
		c := l.Cost[topology.Random]
		prog.Facts = append(prog.Facts,
			programs.LinkFact("link", string(l.A), string(l.B), c),
			programs.LinkFact("link", string(l.B), string(l.A), c))
	}
	d := &spDeployment{overlay: o, sim: simnet.New(cfg.Seed)}
	opts := engine.Options{AggSel: true}
	if r.trace {
		d.hooks = &simHooks{}
		d.hooks.install(&opts)
	}
	factsDone := threadCPU()
	cl, err := engine.NewCluster(d.sim, prog, opts, engine.ClusterConfig{ProcDelay: spProcDelay})
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	compiled := threadCPU()
	for _, n := range o.Nodes {
		cl.AddNode(n)
	}
	for _, l := range o.Links {
		if err := d.sim.AddLink(l.A, l.B, l.LatencySec, 0); err != nil {
			return nil, fmt.Errorf("deploy: %w", err)
		}
	}
	done := threadCPU()
	d.cluster = cl
	for _, t := range prog.Materialized {
		d.preds = append(d.preds, t.Name)
	}
	r.layer.add("parser.parse_s", (parsed - start).Seconds())
	r.layer.add("engine.compile_s", (compiled - factsDone).Seconds())
	r.layer.add("simnet.deploy_s", (done - compiled + factsDone - parsed).Seconds())
	r.e2e.add("setup_s", (done - start).Seconds())
	return d, nil
}

// drain runs the simulator until no event is left, counting events.
func drain(sim *simnet.Sim) (int, error) {
	n := 0
	for sim.Step() {
		if n++; n > maxEvents {
			return n, fmt.Errorf("no quiescence after %d events", maxEvents)
		}
	}
	return n, nil
}

// simSPPass deploys Figure 13, runs it to the fixpoint and through the
// seed's schedule of link-cost bursts, checking each fixpoint against
// Dijkstra. It then deploys and runs the fixpoint once more, so that
// the fixpoint is timed at both ends of the pass: the host's speed moves
// over seconds to minutes, and two samples far apart move less than one.
func simSPPass(r *run) error {
	runtime.LockOSThread() // for threadCPU
	defer runtime.UnlockOSThread()
	var d *spDeployment
	runtime.GC()
	for i := 0; i < setupReps; i++ {
		var err error
		if d, err = deploySP(r); err != nil {
			return err
		}
	}
	if err := spFixpoint(r, d); err != nil {
		return err
	}

	for b, ups := range schedule(rand.New(rand.NewSource(r.seed)), d.overlay) {
		// A set-up that is thrown away before each burst spreads
		// setup_s's samples over the pass, as the fixpoint's are.
		runtime.GC()
		if _, err := deploySP(r); err != nil {
			return err
		}
		runtime.GC()
		t0 := threadCPU()
		for _, u := range ups {
			if err := applyUpdate(d, u); err != nil {
				return err
			}
		}
		if _, err := drain(d.sim); err != nil {
			return err
		}
		r.e2e.add("update_s", (threadCPU() - t0).Seconds())
		r.checkSP(fmt.Sprintf("sim-sp burst %d", b), d)
	}
	r.fact("updates", d.sim, d.cluster.Tuples("shortestPath"))

	runtime.GC()
	last, err := deploySP(r)
	if err != nil {
		return err
	}
	return spFixpoint(r, last)
}

// spFixpoint seeds a fresh deployment, runs it to its fixpoint and
// checks it, recording the fixpoint's metrics.
func spFixpoint(r *run, d *spDeployment) error {
	runtime.GC()
	mem0, cpu0, t0 := memSnapshot(), cpuTime(), threadCPU()
	if err := d.cluster.Seed(); err != nil {
		return err
	}
	events, err := drain(d.sim)
	if err != nil {
		return err
	}
	r.e2e.add("fixpoint_s", (threadCPU() - t0).Seconds())
	r.e2e.add("cpu_s", (cpuTime() - cpu0).Seconds())
	r.e2e.add("net_mb", float64(d.sim.Bytes())/1e6)
	r.layer.add("simnet.events", float64(events))
	r.recordSim(d.sim, d.cluster, d.preds)
	if r.trace {
		r.recordAlloc(mem0, memSnapshot())
		d.hooks.record(r)
	}
	r.e2e.add("mem_mb", liveHeapMB())
	r.fact("fixpoint", d.sim, d.cluster.Tuples("shortestPath"))
	r.checkSP("sim-sp fixpoint", d)
	return nil
}

// checkSP checks the deployment's shortestPath table against Dijkstra on
// the overlay's current costs, timing the check as oracle overhead.
func (r *run) checkSP(op string, d *spDeployment) {
	t0 := time.Now()
	r.check(op, checkShortestPaths(d.cluster.Tuples("shortestPath"), spOracle(d.overlay, topology.Random)))
	r.layer.add("bench.oracle_s", time.Since(t0).Seconds())
}

// linkUpdate is one overlay link's new cost.
type linkUpdate struct {
	a, b simnet.NodeID
	cost float64
}

// schedule draws a pass's Figure 13 bursts: two sweeps of spGroups
// bursts, each burst 1/spGroups of the overlay's links. The first sweep
// changes every link once, to its base cost times a factor between
// 1/(1+spMaxDelta) and 1+spMaxDelta; the second, in a fresh order, puts
// every link back to its base cost, which again is a change within
// those bounds. So every seed moves every link once up or down and once
// back, and picks only the grouping, order and size of the changes.
// With independent random bursts, whose links and directions the seed
// also picked, the event count of a pass's bursts varied by 10% over
// five seeds (by 1.2% with this schedule). schedule reads the overlay's
// current costs as the base but does not change them.
func schedule(rng *rand.Rand, o *topology.Overlay) [][]linkUpdate {
	base := make([]float64, len(o.Links))
	for i, l := range o.Links {
		base[i] = l.Cost[topology.Random]
	}
	var bursts [][]linkUpdate
	for sweep := 0; sweep < 2; sweep++ {
		perm := rng.Perm(len(o.Links))
		for g := 0; g < spGroups; g++ {
			var ups []linkUpdate
			for _, idx := range perm[g*len(perm)/spGroups : (g+1)*len(perm)/spGroups] {
				l, cost := o.Links[idx], base[idx]
				if sweep == 0 {
					f := math.Exp((rng.Float64()*2 - 1) * math.Log1p(spMaxDelta))
					if f == 1 {
						// Re-inserting the same row would be a duplicate, not an update.
						f = 1 + spMaxDelta/2
					}
					cost *= f
				}
				ups = append(ups, linkUpdate{l.A, l.B, cost})
			}
			bursts = append(bursts, ups)
		}
	}
	return bursts
}

// applyUpdate changes a link's cost in the overlay (the oracle's view)
// and injects the new link rows at both endpoints; each replaces the old
// row under link's (src, dst) key.
func applyUpdate(d *spDeployment, u linkUpdate) error {
	l, ok := d.overlay.Link(u.a, u.b)
	if !ok {
		return fmt.Errorf("update of unknown link %s-%s", u.a, u.b)
	}
	l.Cost[topology.Random] = u.cost
	if err := d.cluster.Inject(string(u.a), engine.Insert(programs.LinkFact("link", string(u.a), string(u.b), u.cost))); err != nil {
		return err
	}
	return d.cluster.Inject(string(u.b), engine.Insert(programs.LinkFact("link", string(u.b), string(u.a), u.cost)))
}
