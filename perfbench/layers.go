package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"runtime/pprof"
	"strings"
)

// Per-layer CPU attribution. A traced run records a CPU profile of the
// benchmark process; each sample goes to the layer of its deepest frame
// inside ndlog/internal, so the layer metrics sum to the profiled total.
// Samples with no such frame go to runtime.gc (collector work) or other.

// frame is one stack frame of a profile sample.
type frame struct{ fn, file string }

const internalPrefix = "ndlog/internal/"

// layerOf names the layer a sample's stack (leaf first) is charged to.
func layerOf(stack []frame) string {
	for _, f := range stack {
		if strings.HasPrefix(f.fn, internalPrefix) {
			return internalLayer(f)
		}
	}
	for _, f := range stack {
		if isGC(f.fn) {
			return "runtime.gc"
		}
	}
	return "other"
}

// internalLayer maps a frame inside ndlog/internal to its layer.
func internalLayer(f frame) string {
	rest := strings.TrimPrefix(f.fn, internalPrefix)
	pkg, fn, _ := strings.Cut(rest, ".")
	file := path.Base(f.file)
	decode := strings.Contains(fn, "Decode") || strings.Contains(fn, "decode")
	switch pkg {
	case "engine":
		switch {
		case file == "strand.go":
			return "engine.join"
		case decode:
			return "engine.decode"
		case strings.Contains(fn, "Encode") || strings.Contains(fn, "Append"):
			return "engine.encode"
		}
		return "engine.other"
	case "val":
		switch {
		case decode:
			return "engine.decode"
		case file == "encode.go":
			return "engine.encode"
		case file == "intern.go":
			return "val.intern"
		case file == "hash.go":
			return "val.hash"
		}
		return "val.other"
	case "funcs":
		return "funcs.eval"
	case "table":
		if file == "agg.go" {
			return "table.agg"
		}
		return "table.store"
	case "simnet", "netrun", "shard", "durable", "parser", "planner", "conform":
		return pkg
	}
	return "internal.other"
}

// isGC reports whether a runtime frame does garbage-collector work.
func isGC(fn string) bool {
	for _, p := range []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot", "runtime.scanobject", "runtime.sweepone"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// onPath reports whether any frame of the stack is the named engine
// method, for the cumulative insert- and delete-path metrics.
func onPath(stack []frame, method string) bool {
	for _, f := range stack {
		if strings.HasPrefix(f.fn, internalPrefix+"engine.") && strings.HasSuffix(f.fn, "."+method) {
			return true
		}
	}
	return false
}

// attribute charges each sample's CPU seconds to metric names.
func attribute(samples []sample) map[string]float64 {
	out := map[string]float64{}
	for _, s := range samples {
		sec := float64(s.cpuNanos) / 1e9
		out[layerOf(s.stack)+".cpu_s"] += sec
		if onPath(s.stack, "processInsert") {
			out["engine.insert_path.cpu_s"] += sec
		}
		if onPath(s.stack, "processDelete") {
			out["engine.delete_path.cpu_s"] += sec
		}
	}
	return out
}

// profiler is a running CPU profile of this process.
type profiler struct{ buf bytes.Buffer }

func startProfile() (*profiler, error) {
	p := &profiler{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and attributes its samples to layers.
func (p *profiler) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	samples, err := parseProfile(p.buf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return attribute(samples), nil
}

// sample is one profile sample: its stack, leaf first, and its CPU time.
type sample struct {
	stack    []frame
	cpuNanos int64
}

// parseProfile decodes the gzipped profile.proto that runtime/pprof
// writes, keeping only what attribution needs: each sample's stack
// (with inlined frames expanded, innermost first) and its cpu value.
func parseProfile(gz []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type function struct{ name, file int64 }
	var (
		strs      []string
		valTypes  []int64 // string index of each sample type
		rawSample [][]byte
		funcs     = map[uint64]function{}
		locs      = map[uint64][]uint64{} // location id → function ids, innermost first
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					valTypes = append(valTypes, int64(v))
				}
				return nil
			})
		case 2: // sample
			rawSample = append(rawSample, b)
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, _ int, v uint64, lb []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(lb, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var fn function
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					fn.name = int64(v)
				case 4:
					fn.file = int64(v)
				}
				return nil
			})
			funcs[id] = fn
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	cpuIdx := -1
	for i, t := range valTypes {
		if str(t) == "cpu" {
			cpuIdx = i
		}
	}
	if cpuIdx < 0 {
		return nil, errors.New("no cpu sample type")
	}
	var out []sample
	for _, b := range rawSample {
		var locIDs []uint64
		var vals []int64
		err := eachField(b, func(n, wire int, v uint64, pb []byte) error {
			switch n {
			case 1:
				locIDs = appendVarints(locIDs, wire, v, pb)
			case 2:
				for _, u := range appendVarints(nil, wire, v, pb) {
					vals = append(vals, int64(u))
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if cpuIdx >= len(vals) {
			continue
		}
		s := sample{cpuNanos: vals[cpuIdx]}
		for _, l := range locIDs {
			for _, fid := range locs[l] {
				fn := funcs[fid]
				s.stack = append(s.stack, frame{fn: str(fn.name), file: str(fn.file)})
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// appendVarints appends a repeated varint field's values, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, packed []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}

// eachField walks a protobuf message, calling fn with each field's
// number, wire type and value: v for varints, b for length-delimited
// fields. Fixed-width fields are skipped.
func eachField(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad protobuf key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad protobuf varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short protobuf fixed64")
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad protobuf length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short protobuf fixed32")
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}
