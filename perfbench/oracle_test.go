package main

import (
	"strings"
	"testing"

	"ndlog/internal/val"
)

func spRow(src, dst string, cost float64, hops ...string) val.Tuple {
	var path []val.Value
	for _, h := range append(append([]string{src}, hops...), dst) {
		path = append(path, val.NewAddr(h))
	}
	return val.NewTuple("shortestPath", val.NewAddr(src), val.NewAddr(dst), val.NewList(path...), val.NewFloat(cost))
}

func TestCheckShortestPaths(t *testing.T) {
	want := map[pair]float64{{"a", "b"}: 2, {"b", "a"}: 2, {"a", "c"}: 5}
	tests := []struct {
		name string
		rows []val.Tuple
		bad  []string // substrings, one per expected problem
	}{
		{"correct", []val.Tuple{spRow("a", "b", 2), spRow("b", "a", 2), spRow("a", "c", 5, "b")}, nil},
		{"ties are legal", []val.Tuple{spRow("a", "b", 2), spRow("b", "a", 2), spRow("a", "c", 5, "b"), spRow("a", "c", 5, "d")}, nil},
		{"wrong cost", []val.Tuple{spRow("a", "b", 2), spRow("b", "a", 3), spRow("a", "c", 5)}, []string{"wrong b→a"}},
		{"stale row beside the best", []val.Tuple{spRow("a", "b", 2), spRow("b", "a", 2), spRow("a", "c", 5), spRow("a", "c", 7, "d")}, []string{"wrong a→c"}},
		{"missing pair", []val.Tuple{spRow("a", "b", 2), spRow("a", "c", 5)}, []string{"missing b→a"}},
		{"unexpected pair", []val.Tuple{spRow("a", "b", 2), spRow("b", "a", 2), spRow("a", "c", 5), spRow("c", "a", 5)}, []string{"unexpected pair c→a"}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := checkShortestPaths(tc.rows, want)
			if len(got) != len(tc.bad) {
				t.Fatalf("problems %q, want %d", got, len(tc.bad))
			}
			for i, sub := range tc.bad {
				if !strings.Contains(got[i], sub) {
					t.Errorf("problem %q does not mention %q", got[i], sub)
				}
			}
		})
	}
}
