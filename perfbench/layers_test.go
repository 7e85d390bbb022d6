package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"
)

func TestLayerOf(t *testing.T) {
	malloc := frame{"runtime.mallocgc", "/go/src/runtime/malloc.go"}
	tests := []struct {
		stack []frame // leaf first
		want  string
	}{
		{[]frame{{"ndlog/internal/engine.(*strand).joinFrom", "/src/internal/engine/strand.go"}}, "engine.join"},
		{[]frame{malloc, {"ndlog/internal/engine.(*strand).joinFrom", "/src/internal/engine/strand.go"}}, "engine.join"},
		{[]frame{{"ndlog/internal/funcs.EvalBool", "/src/internal/funcs/funcs.go"}, {"ndlog/internal/engine.(*strand).joinFrom", "/src/internal/engine/strand.go"}}, "funcs.eval"},
		{[]frame{{"ndlog/internal/table.(*Table).Insert", "/src/internal/table/table.go"}}, "table.store"},
		{[]frame{{"ndlog/internal/table.(*GroupAgg).Add", "/src/internal/table/agg.go"}}, "table.agg"},
		{[]frame{{"ndlog/internal/val.DecodeTupleIn", "/src/internal/val/encode.go"}, {"ndlog/internal/engine.DecodeMessageIn", "/src/internal/engine/delta.go"}}, "engine.decode"},
		{[]frame{{"ndlog/internal/val.AppendValue", "/src/internal/val/encode.go"}}, "engine.encode"},
		{[]frame{{"ndlog/internal/val.(*Interner).internBytes", "/src/internal/val/intern.go"}}, "val.intern"},
		{[]frame{{"runtime.scanobject", "/go/src/runtime/mgcmark.go"}, {"runtime.gcDrain", "/go/src/runtime/mgcmark.go"}, {"runtime.gcBgMarkWorker", "/go/src/runtime/mgc.go"}}, "runtime.gc"},
		{[]frame{{"syscall.Syscall", "/go/src/syscall/syscall_linux.go"}}, "other"},
		{[]frame{{"ndlog/internal/topology.(*Overlay).ShortestPaths", "/src/internal/topology/topology.go"}}, "internal.other"},
		{[]frame{{"ndlog/internal/val.Hash64.AddString", "/src/internal/val/hash.go"}}, "val.hash"},
		{[]frame{{"ndlog/internal/engine.(*Node).processInsert", "/src/internal/engine/node.go"}}, "engine.other"},
		{[]frame{{"ndlog/internal/engine.AppendDeltas", "/src/internal/engine/delta.go"}}, "engine.encode"},
		{[]frame{{"ndlog/internal/shard.(*Coordinator).apply", "/src/internal/shard/coord.go"}}, "shard"},
	}
	reported := map[string]bool{}
	for _, n := range cpuLayerMetrics {
		reported[n] = true
	}
	for _, tc := range tests {
		got := layerOf(tc.stack)
		if got != tc.want {
			t.Errorf("layerOf(%s) = %s, want %s", tc.stack[0].fn, got, tc.want)
		}
		if !reported[got+".cpu_s"] {
			t.Errorf("layer %s is not among the reported metrics", got)
		}
	}
}

func TestPathMetricsAreCumulative(t *testing.T) {
	stack := []frame{
		{"ndlog/internal/table.(*Table).Insert", "/src/internal/table/table.go"},
		{"ndlog/internal/engine.(*Node).processInsert", "/src/internal/engine/node.go"},
	}
	got := attribute([]sample{{stack: stack, cpuNanos: 2e7}})
	if got["table.store.cpu_s"] != 0.02 || got["engine.insert_path.cpu_s"] != 0.02 || got["engine.delete_path.cpu_s"] != 0 {
		t.Errorf("attribute = %v", got)
	}
}

// TestParseProfile decodes a real CPU profile of this process.
func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	x := 0
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		x += spin(1000)
	}
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	found := false
	for _, s := range samples {
		total += s.cpuNanos
		for _, f := range s.stack {
			found = found || f.fn == "ndlog/perfbench.spin" || f.fn == "ndlog/perfbench.TestParseProfile"
		}
	}
	if total <= 0 || !found {
		t.Errorf("%d samples, %v total, test frames found: %v (x=%d)", len(samples), time.Duration(total), found, x)
	}
}

//go:noinline
func spin(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += i * i
	}
	return s
}
