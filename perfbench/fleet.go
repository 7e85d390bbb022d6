package main

import (
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"ndlog/internal/experiments"
	"ndlog/internal/programs"
	"ndlog/internal/shard"
	"ndlog/internal/topology"
)

// The fleet workloads: Figure 7 (the 14-node overlay, latency metric,
// path-vector program) on two worker processes over UDP loopback, with
// fsync-on-commit durability. Every knob but aggregate selections and
// the data directory keeps its shipped default. The fleet is observed
// only from outside: the coordinator's API, the worker processes'
// rusage and the bytes under the data directory.
const (
	fleetShards  = 2
	fleetMoves   = 3 // nodes migrated by the pass's one Rebalance
	fleetIdle    = 300 * time.Millisecond
	fleetSilence = 400 * time.Millisecond // DeadWorkers window
	fleetTimeout = 20 * time.Second
	fleetPoll    = 5 * time.Millisecond // ShardStats poll while waiting for quiescence
)

// fleetWorkload returns Figure 7 as deployable source (link facts
// inline, so the manifest carries the whole workload), its node IDs and
// its overlay.
func fleetWorkload() (string, []string, *topology.Overlay) {
	o := experiments.BuildOverlay(experiments.Small())
	var b strings.Builder
	b.WriteString(programs.ShortestPath(""))
	for _, l := range o.Links {
		c := strconv.FormatFloat(l.Cost[topology.Latency], 'f', -1, 64)
		fmt.Fprintf(&b, "link(%s, %s, %s).\nlink(%s, %s, %s).\n", l.A, l.B, c, l.B, l.A, c)
	}
	ids := make([]string, len(o.Nodes))
	for i, n := range o.Nodes {
		ids[i] = string(n)
	}
	return b.String(), ids, o
}

// fleet tracks the worker processes this benchmark started, so it can
// kill them and read their rusage.
type fleet struct {
	exe, manifest string
	coord         *shard.Coordinator

	mu      sync.Mutex
	cmds    []*exec.Cmd
	byShard map[int]*exec.Cmd
}

// build is the Spawn/Respawn command builder: a re-exec of this binary
// as the shard's worker.
func (f *fleet) build(shardID int) *exec.Cmd {
	cmd := exec.Command(f.exe)
	cmd.Env = append(os.Environ(), shard.WorkerEnv(f.manifest, shardID, f.coord.ControlAddr())...)
	cmd.Stderr = os.Stderr
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cmds = append(f.cmds, cmd)
	f.byShard[shardID] = cmd
	return cmd
}

// worker returns the process currently serving a shard.
func (f *fleet) worker(shardID int) *exec.Cmd {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.byShard[shardID]
}

// usage sums the CPU time and takes the largest peak RSS of every
// worker that has exited and been reaped.
func (f *fleet) usage() (cpu time.Duration, rssMB float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, c := range f.cmds {
		if c.ProcessState == nil {
			continue
		}
		if ru, ok := c.ProcessState.SysUsage().(*syscall.Rusage); ok {
			cpu += rusageCPU(ru)
			rssMB = max(rssMB, float64(ru.Maxrss)/1024)
		}
	}
	return cpu, rssMB
}

// fleetPass deploys Figure 7 on a fresh fleet and takes it through its
// fixpoint, one three-node migration and one worker crash, checking the
// gathered shortestPath table against Dijkstra after each.
func fleetPass(r *run, aggSel bool) error {
	src, ids, o := fleetWorkload()
	want := spOracle(o, topology.Latency)
	dir, err := os.MkdirTemp(r.dir, "pass-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	m := &shard.Manifest{
		Source:  src,
		Options: shard.Options{AggSel: aggSel, DataDir: filepath.Join(dir, "data")},
		Shards:  shard.Partition(ids, fleetShards),
	}
	f := &fleet{manifest: filepath.Join(dir, "manifest.json"), byShard: map[int]*exec.Cmd{}}
	if err := m.Save(f.manifest); err != nil {
		return err
	}
	if f.exe, err = os.Executable(); err != nil {
		return err
	}
	// A run makes about twenty of these short passes, so each draws its
	// own migration and victim: the run's medians then cover many of
	// them instead of hanging on the one a seed would pick.
	rng := rand.New(rand.NewSource(r.seed*1_000_003 + int64(r.passes)))

	cpu0, t0 := cpuTime(), time.Now()
	if f.coord, err = shard.NewCoordinator(m); err != nil {
		return err
	}
	stopped := false
	defer func() {
		if !stopped {
			f.coord.Shutdown(fleetTimeout) // kills and reaps whatever is left
		}
	}()
	t1 := time.Now()
	if err := f.coord.Spawn(f.build); err != nil {
		return err
	}
	t2 := time.Now()
	if err := f.coord.WaitReady(fleetTimeout); err != nil {
		return err
	}
	ready := time.Now()
	r.e2e.add("setup_s", ready.Sub(t0).Seconds())
	r.layer.add("shard.spawn_s", t2.Sub(t1).Seconds())
	r.layer.add("shard.ready_s", ready.Sub(t2).Seconds())

	// Fixpoint: the workers seed themselves once the start barrier
	// releases, which WaitReady waits for.
	quiet := r.waitQuiescent(f.coord)
	r.e2e.add("fixpoint_s", time.Since(ready).Seconds())
	st := sumStats(f.coord.ShardStats())
	r.e2e.add("net_mb", float64(st.SentBytes)/1e6)
	r.layer.add("netrun.sent_msgs", float64(st.SentMessages))
	r.layer.add("netrun.recv_msgs", float64(st.RecvMessages))
	r.layer.add("netrun.lost_msgs", float64(st.SentMessages-st.RecvMessages))
	r.layer.add("netrun.sent_mb", float64(st.SentBytes)/1e6)
	r.layer.add("netrun.dropped", float64(st.Dropped))
	r.layer.add("durable.wal_mb", dirMB(m.Options.DataDir))
	r.checkFleet("fleet fixpoint", f.coord, quiet, want)

	// Migration: one Rebalance moving fleetMoves nodes to the other shard.
	var migs []shard.Migration
	for _, i := range rng.Perm(len(ids))[:fleetMoves] {
		migs = append(migs, shard.Migration{Node: ids[i], To: (f.coord.Owner(ids[i]) + 1) % fleetShards})
	}
	t0 = time.Now()
	rep, err := f.coord.Rebalance(migs, fleetIdle, fleetTimeout)
	if err != nil {
		return fmt.Errorf("rebalance: %w", err)
	}
	quiet = r.waitQuiescent(f.coord)
	r.layer.add("shard.rebalance_s", time.Since(t0).Seconds())
	r.layer.add("shard.migration_pause_s", rep.Pause.Seconds())
	r.layer.add("shard.rebalance_quiesce_s", rep.QuiesceWait.Seconds())
	r.layer.add("shard.state_bytes", float64(rep.StateBytes))
	r.checkFleet("fleet migration", f.coord, quiet, want)

	// Crash: SIGKILL one worker, detect it, respawn it warm from its data
	// directory, and wait for the fleet's fixpoint again.
	victim := rng.Intn(fleetShards)
	t0 = time.Now()
	if err := f.worker(victim).Process.Kill(); err != nil {
		return fmt.Errorf("kill worker %d: %w", victim, err)
	}
	if err := awaitDead(f.coord, victim); err != nil {
		return err
	}
	t1 = time.Now()
	if err := f.coord.Respawn(victim, f.build, fleetIdle, fleetTimeout); err != nil {
		return fmt.Errorf("respawn: %w", err)
	}
	t2 = time.Now()
	quiet = r.waitQuiescent(f.coord)
	r.e2e.add("update_s", time.Since(t0).Seconds())
	r.layer.add("shard.detect_s", t1.Sub(t0).Seconds())
	r.layer.add("shard.respawn_s", t2.Sub(t1).Seconds())
	r.layer.add("shard.recover_quiesce_s", time.Since(t2).Seconds())
	r.checkFleet("fleet recovery", f.coord, quiet, want)

	r.layer.add("netrun.fenced", float64(sumStats(f.coord.ShardStats()).Fenced))

	stopped = true
	if err := f.coord.Shutdown(fleetTimeout); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	workerCPU, rss := f.usage()
	r.layer.add("worker.cpu_s", workerCPU.Seconds())
	r.e2e.add("cpu_s", (workerCPU + cpuTime() - cpu0).Seconds())
	r.e2e.add("mem_mb", rss)
	return nil
}

// waitQuiescent waits for the fleet's quiescence, timing the wait and
// its tail: the time from the last change seen in ShardStats to the
// wait's return. It reports whether the fleet went quiet.
func (r *run) waitQuiescent(c *shard.Coordinator) bool {
	start := time.Now()
	stop := make(chan struct{})
	lastChange := make(chan time.Time, 1)
	go func() {
		prev, last := sumStats(c.ShardStats()), start
		tick := time.NewTicker(fleetPoll)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				lastChange <- last
				return
			case now := <-tick.C:
				if s := sumStats(c.ShardStats()); s != prev {
					prev, last = s, now
				}
			}
		}
	}()
	ok := c.WaitQuiescent(fleetIdle, fleetTimeout)
	end := time.Now()
	close(stop)
	last := <-lastChange
	r.layer.add("shard.quiesce_s", end.Sub(start).Seconds())
	r.layer.add("shard.quiesce_tail_s", end.Sub(last).Seconds())
	return ok
}

// checkFleet gathers shortestPath from every shard and checks it against
// the oracle. A fleet that never went quiet fails the check too.
func (r *run) checkFleet(op string, c *shard.Coordinator, quiet bool, want map[pair]float64) {
	var problems []string
	if !quiet {
		problems = append(problems, fmt.Sprintf("no quiescence within %v", fleetTimeout))
	}
	t0 := time.Now()
	rows, err := c.Tuples("shortestPath", fleetTimeout)
	r.layer.add("shard.gather_s", time.Since(t0).Seconds())
	if err != nil {
		problems = append(problems, "gather: "+err.Error())
	}
	t0 = time.Now()
	problems = append(problems, checkShortestPaths(rows, want)...)
	r.layer.add("bench.oracle_s", time.Since(t0).Seconds())
	r.check(op, problems)
}

// awaitDead polls DeadWorkers until it names the killed shard.
func awaitDead(c *shard.Coordinator, victim int) error {
	deadline := time.Now().Add(fleetTimeout)
	for time.Now().Before(deadline) {
		for _, id := range c.DeadWorkers(fleetSilence) {
			if id == victim {
				return nil
			}
		}
		time.Sleep(fleetPoll)
	}
	return fmt.Errorf("killed worker %d never reported dead", victim)
}

// sumStats adds up per-shard traffic, Fenced included (TotalStats
// leaves it out).
func sumStats(per map[int]shard.Stats) shard.Stats {
	var t shard.Stats
	for _, s := range per {
		t.SentBytes += s.SentBytes
		t.SentMessages += s.SentMessages
		t.RecvBytes += s.RecvBytes
		t.RecvMessages += s.RecvMessages
		t.Dropped += s.Dropped
		t.Fenced += s.Fenced
	}
	return t
}

// dirMB is the total size of the regular files under dir.
func dirMB(dir string) float64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return float64(n) / 1e6
}
