package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// def names one reported metric. The lists below are the benchmark's
// schema; BENCHMARK.json at the repository root repeats them (a test
// keeps the two in step).
type def struct {
	Name string
	Unit string
}

// endToEnd metrics are measured with tracing off. All are lower-better.
var endToEnd = []def{
	{"setup_s", "s"},    // parse, compile, deploy; fleets: NewCoordinator→WaitReady
	{"fixpoint_s", "s"}, // seed → oracle-verified fixpoint, oracle time excluded
	{"update_s", "s"},   // one perturbation → oracle-verified fixpoint again
	{"cpu_s", "s"},      // user+sys CPU of one fixpoint (sims) or one pass (fleets)
	{"net_mb", "MB"},    // wire bytes to the fixpoint
	{"mem_mb", "MB"},    // sims: live heap at the fixpoint; fleets: largest worker peak RSS
}

// cpuLayerMetrics are the traced run's profile attributions, per pass.
// All but the two *_path metrics partition the profiled CPU time.
var cpuLayerMetrics = []string{
	"engine.join.cpu_s",
	"engine.decode.cpu_s",
	"engine.encode.cpu_s",
	"engine.other.cpu_s",
	"funcs.eval.cpu_s",
	"table.store.cpu_s",
	"table.agg.cpu_s",
	"val.intern.cpu_s",
	"val.hash.cpu_s",
	"val.other.cpu_s",
	"simnet.cpu_s",
	"netrun.cpu_s",
	"shard.cpu_s",
	"durable.cpu_s",
	"parser.cpu_s",
	"planner.cpu_s",
	"conform.cpu_s",
	"internal.other.cpu_s",
	"runtime.gc.cpu_s",
	"other.cpu_s",
	"engine.insert_path.cpu_s",
	"engine.delete_path.cpu_s",
}

// perLayer metrics come from a traced run. Metrics that a workload has
// no such layer for read 0.
var perLayer = func() []def {
	d := []def{
		{"parser.parse_s", "s"},
		{"engine.compile_s", "s"},
		{"simnet.deploy_s", "s"},
		{"shard.spawn_s", "s"},
		{"shard.ready_s", "s"},
	}
	for _, n := range cpuLayerMetrics {
		d = append(d, def{n, "s"})
	}
	return append(d, []def{
		{"runtime.alloc_mb", "MB"},
		{"runtime.mallocs", "count"},
		{"engine.derivations", "count"},
		{"engine.stores", "count"},
		{"engine.retracts", "count"},
		{"engine.store_ratio", "ratio"},
		{"table.rows", "count"},
		{"simnet.msgs", "count"},
		{"simnet.bytes", "count"},
		{"simnet.events", "count"},
		{"simnet.converge_vsec", "vs"},
		{"chord.lookups_ok", "count"},
		{"shard.quiesce_s", "s"},
		{"shard.quiesce_tail_s", "s"},
		{"netrun.sent_msgs", "count"},
		{"netrun.recv_msgs", "count"},
		{"netrun.lost_msgs", "count"},
		{"netrun.sent_mb", "MB"},
		{"netrun.fenced", "count"},
		{"netrun.dropped", "count"},
		{"durable.wal_mb", "MB"},
		{"worker.cpu_s", "s"},
		{"shard.migration_pause_s", "s"},
		{"shard.rebalance_s", "s"},
		{"shard.rebalance_quiesce_s", "s"},
		{"shard.state_bytes", "count"},
		{"shard.detect_s", "s"},
		{"shard.respawn_s", "s"},
		{"shard.recover_quiesce_s", "s"},
		{"shard.gather_s", "s"},
		{"bench.oracle_s", "s"},
		{"bench.trace_overhead", "ratio"},
	}...)
}()

// recorder collects samples per metric; a metric's value is the median
// of its samples, 0 when it has none.
type recorder map[string][]float64

func (r recorder) add(name string, v float64) { r[name] = append(r[name], v) }

func (r recorder) value(name string) float64 { return median(r[name]) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// cpuTime is this process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return rusageCPU(&ru)
}

// threadCPU is the calling OS thread's user+sys CPU time so far. The
// simulated workloads time their phases with it, with the simulating
// goroutine locked to its thread: the simulator runs on that one
// goroutine and never waits, so its wall time is this CPU time plus the
// time the host does not schedule the thread. On a shared virtual
// machine that second part moved the median fixpoint wall time by 60%
// between runs an hour apart, while the process's CPU time moved by 15%.
func threadCPU() time.Duration {
	// getrusage(RUSAGE_THREAD) only advances at scheduler ticks, too
	// coarse for millisecond set-ups; the thread CPU clock is exact.
	var ts syscall.Timespec
	if _, _, errno := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID

func rusageCPU(ru *syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memSnapshot reads the runtime's allocation counters.
func memSnapshot() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// recordAlloc records the allocation work between two snapshots.
func (r *run) recordAlloc(before, after runtime.MemStats) {
	r.layer.add("runtime.alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/1e6)
	r.layer.add("runtime.mallocs", float64(after.Mallocs-before.Mallocs))
}

// liveHeapMB is the heap that survives a full collection.
func liveHeapMB() float64 {
	runtime.GC()
	m := memSnapshot()
	return float64(m.HeapAlloc) / 1e6
}
