package main

import (
	"fmt"
	"hash/fnv"

	"ndlog/internal/engine"
	"ndlog/internal/simnet"
	"ndlog/internal/val"
)

// recordSim records the simulator's deterministic counts at a fixpoint
// and, on traced runs, the number of stored rows.
func (r *run) recordSim(sim *simnet.Sim, cl *engine.Cluster, preds []string) {
	r.layer.add("simnet.msgs", float64(sim.Messages()))
	r.layer.add("simnet.bytes", float64(sim.Bytes()))
	r.layer.add("simnet.converge_vsec", sim.LastDelivery())
	if !r.trace {
		return
	}
	rows := 0
	for _, p := range preds {
		rows += len(cl.Tuples(p))
	}
	r.layer.add("table.rows", float64(rows))
}

// fact notes a deterministic observation of a simulated run: its
// message and byte counts, the virtual time of its last delivery, and a
// fingerprint of the given rows. A traced run must note exactly what
// the untraced reference run noted.
func (r *run) fact(label string, sim *simnet.Sim, rows []val.Tuple) {
	h := fnv.New64a()
	for _, t := range rows { // Cluster.Tuples and Node.Tuples order is fixed
		h.Write([]byte(t.String()))
		h.Write([]byte{0})
	}
	r.facts = append(r.facts, fmt.Sprintf("%s: msgs=%d bytes=%d vsec=%v rows=%d/%x",
		label, sim.Messages(), sim.Bytes(), sim.LastDelivery(), len(rows), h.Sum64()))
}
