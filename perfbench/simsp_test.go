package main

import (
	"math/rand"
	"reflect"
	"testing"

	"ndlog/internal/experiments"
	"ndlog/internal/topology"
)

func TestBurstIsDeterministic(t *testing.T) {
	o := experiments.BuildOverlay(experiments.Default())
	a := schedule(rand.New(rand.NewSource(7)), o)
	b := schedule(rand.New(rand.NewSource(7)), o)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed drew different bursts")
	}
	if c := schedule(rand.New(rand.NewSource(8)), o); reflect.DeepEqual(a, c) {
		t.Error("different seeds drew the same bursts")
	}
	if len(a) != 2*spGroups {
		t.Fatalf("%d bursts, want %d", len(a), 2*spGroups)
	}
	base := map[[2]string]float64{}
	for _, l := range o.Links {
		base[[2]string{string(l.A), string(l.B)}] = l.Cost[topology.Random]
	}
	cost := map[[2]string]float64{}
	for k, v := range base {
		cost[k] = v
	}
	for i, ups := range a {
		if n := len(ups); n < len(o.Links)/spGroups || n > len(o.Links)/spGroups+1 {
			t.Errorf("burst %d changes %d of %d links, want a tenth", i, n, len(o.Links))
		}
		for _, u := range ups {
			k := [2]string{string(u.a), string(u.b)}
			old := cost[k]
			if u.cost == old || u.cost < old/(1+spMaxDelta)*0.999999 || u.cost > old*(1+spMaxDelta)*1.000001 {
				t.Errorf("burst %d, link %s-%s: cost %g → %g is not a change within ±%g", i, u.a, u.b, old, u.cost, spMaxDelta)
			}
			cost[k] = u.cost
		}
		if i == spGroups-1 {
			for k, v := range cost {
				if v == base[k] {
					t.Errorf("link %s-%s unchanged after the first sweep", k[0], k[1])
				}
			}
		}
	}
	if !reflect.DeepEqual(cost, base) {
		t.Error("the second sweep does not restore every link's base cost")
	}
}
