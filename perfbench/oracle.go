package main

import (
	"fmt"
	"math"
	"sort"

	"ndlog/internal/topology"
	"ndlog/internal/val"
)

// pair is an ordered (src, dst) node pair.
type pair struct{ src, dst string }

// spOracle is Dijkstra's best cost for every ordered pair of distinct
// overlay nodes under one metric.
func spOracle(o *topology.Overlay, m topology.Metric) map[pair]float64 {
	want := map[pair]float64{}
	for _, s := range o.Nodes {
		dist, _ := o.ShortestPaths(s, m)
		for d, c := range dist {
			if d != s {
				want[pair{string(s), string(d)}] = c
			}
		}
	}
	return want
}

// checkShortestPaths compares shortestPath(@S,@D,P,C) rows with the
// oracle. Every pair the oracle reaches must have at least one row, and
// every row of a pair must carry the oracle's cost: several rows at that
// cost are legal ties (the table is keyed on the whole row), a row at any
// other cost is a wrong answer. It returns one problem per bad pair, in
// a stable order; none means the fixpoint is correct.
func checkShortestPaths(rows []val.Tuple, want map[pair]float64) []string {
	type span struct{ lo, hi float64 }
	got := map[pair]span{}
	for _, t := range rows {
		k := pair{t.Fields[0].Addr(), t.Fields[1].Addr()}
		c := t.Fields[len(t.Fields)-1].Float()
		s, ok := got[k]
		if !ok {
			s = span{c, c}
		}
		got[k] = span{math.Min(s.lo, c), math.Max(s.hi, c)}
	}
	var problems []string
	for k, w := range want {
		s, ok := got[k]
		switch {
		case !ok:
			problems = append(problems, fmt.Sprintf("missing %s→%s (want cost %g)", k.src, k.dst, w))
		case !costEqual(s.lo, w) || !costEqual(s.hi, w):
			problems = append(problems, fmt.Sprintf("wrong %s→%s: costs %g..%g, want %g", k.src, k.dst, s.lo, s.hi, w))
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			problems = append(problems, fmt.Sprintf("unexpected pair %s→%s", k.src, k.dst))
		}
	}
	sort.Strings(problems)
	return problems
}

func costEqual(a, b float64) bool { return math.Abs(a-b) <= 1e-6*math.Max(1, math.Abs(b)) }
