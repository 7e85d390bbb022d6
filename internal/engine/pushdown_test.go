package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ndlog/internal/ast"
	"ndlog/internal/funcs"
	"ndlog/internal/programs"
	"ndlog/internal/simnet"
	"ndlog/internal/val"
)

// leafOnly rewrites a compiled program to the placement the engine used
// before pushdown: every tail op runs in body order after the whole body
// has joined. It is the oracle the pushdown plan is checked against.
// Call it before the program evaluates anything.
func leafOnly(p *program) {
	for _, sts := range p.strands {
		for _, st := range sts {
			for d := range st.steps {
				st.steps[d].ops = nil
			}
			st.steps[len(st.steps)-1].ops = st.code.tail
		}
	}
}

// pushedOps counts the tail ops the pushdown plan runs before the
// deepest join depth.
func pushedOps(p *program) int {
	n := 0
	for _, sts := range p.strands {
		for _, st := range sts {
			for _, step := range st.steps[:len(st.steps)-1] {
				n += len(step.ops)
			}
		}
	}
	return n
}

var pushdownNodes = []string{"n0", "n1", "n2"}

// pushdownCase is one random program with its base facts and the base
// facts it later deletes.
type pushdownCase struct {
	src     string
	facts   []val.Tuple
	deletes []val.Tuple
}

// randomPushdownCase generates local rules of 3–4 body atoms sharing the
// location variable L, each with 1–3 selections and assignments over
// random subsets of the variables bound by the body, interleaved with
// the atoms at random body positions. Rule d2 reads d0, so derived
// deltas trigger strands too; rule r4 ships d0 rows across #link, so a
// cluster sends messages. withAgg adds a min aggregate rule.
func randomPushdownCase(rng *rand.Rand, withAgg bool) pushdownCase {
	var b strings.Builder
	for _, p := range []string{"e0", "e1", "e2", "e3", "d0", "d1", "d2", "dr"} {
		fmt.Fprintf(&b, "materialize(%s, infinity, infinity, keys(1,2,3)).\n", p)
	}
	b.WriteString("materialize(link, infinity, infinity, keys(1,2)).\n")
	if withAgg {
		b.WriteString("materialize(am, infinity, infinity, keys(1,2)).\n")
	}
	vars := []string{"A", "B", "C", "D", "E"}
	rule := func(label, head string, agg bool, src []string) {
		natoms := 3 + rng.Intn(2)
		var body []string
		bound := map[string]bool{}
		var order []string // bound variables, first-binding order
		for i := 0; i < natoms; i++ {
			args := make([]string, 2)
			for j := range args {
				if rng.Intn(8) == 0 {
					args[j] = fmt.Sprint(rng.Intn(3))
					continue
				}
				v := vars[rng.Intn(len(vars))]
				args[j] = v
				if !bound[v] {
					bound[v] = true
					order = append(order, v)
				}
			}
			body = append(body, fmt.Sprintf("%s(@L, %s, %s)", src[rng.Intn(len(src))], args[0], args[1]))
		}
		if len(order) == 0 {
			body[0] = fmt.Sprintf("%s(@L, A, B)", src[0])
			order = []string{"A", "B"}
		}
		pick := func(from []string) string { return from[rng.Intn(len(from))] }
		operand := func(from []string) string {
			switch rng.Intn(4) {
			case 0:
				return fmt.Sprint(rng.Intn(4))
			case 1:
				return fmt.Sprintf("%s + %d", pick(from), rng.Intn(3))
			default:
				return pick(from)
			}
		}
		nops := 1 + rng.Intn(3)
		lo := 0 // ops keep their generation order in the body
		for k := 0; k < nops; k++ {
			var op string
			if rng.Intn(3) == 0 {
				// An assignment's operands must be bound by the atoms or an
				// earlier assignment, whatever their body positions.
				v := fmt.Sprintf("Y%d", k)
				switch rng.Intn(3) {
				case 0:
					op = fmt.Sprintf("%s := %s + %s", v, pick(order), pick(order))
				case 1:
					op = fmt.Sprintf("%s := f_abs(%s - %s)", v, pick(order), operand(order))
				default:
					op = fmt.Sprintf("%s := %s", v, operand(order))
				}
				order = append(order, v)
			} else {
				cmp := []string{"<", "<=", "==", "!=", ">", ">=", "<=", "!=", ">="}[rng.Intn(9)]
				op = fmt.Sprintf("%s %s %s", operand(order), cmp, operand(order))
			}
			at := lo + rng.Intn(len(body)+1-lo)
			body = slices.Insert(body, at, op)
			lo = at + 1
		}
		if agg {
			fmt.Fprintf(&b, "%s %s(@L, %s, min<%s>) :- %s.\n", label, head, pick(order), pick(order), strings.Join(body, ", "))
			return
		}
		fmt.Fprintf(&b, "%s %s(@L, %s, %s) :- %s.\n", label, head, pick(order), pick(order), strings.Join(body, ", "))
	}
	edbs := []string{"e0", "e1", "e2", "e3"}
	rule("r0", "d0", false, edbs)
	rule("r1", "d1", false, edbs)
	rule("r2", "d2", false, []string{"e0", "e1", "d0"})
	if withAgg {
		rule("r3", "am", true, []string{"e2", "e3", "d1"})
	}
	b.WriteString("r4 dr(@M, V, W) :- #link(@L, @M), d0(@L, V, W), V != W.\n")

	var c pushdownCase
	c.src = b.String()
	seen := map[string]bool{}
	for _, loc := range pushdownNodes {
		for _, p := range edbs {
			for i := 0; i < 12; i++ {
				f := val.NewTuple(p, val.NewAddr(loc), val.NewInt(int64(rng.Intn(4))), val.NewInt(int64(rng.Intn(4))))
				if seen[f.String()] {
					continue
				}
				seen[f.String()] = true
				c.facts = append(c.facts, f)
			}
		}
		for _, peer := range pushdownNodes {
			if peer != loc {
				c.facts = append(c.facts, val.NewTuple("link", val.NewAddr(loc), val.NewAddr(peer)))
			}
		}
	}
	for len(c.deletes) < 3 {
		f := c.facts[rng.Intn(len(c.facts))]
		if f.Pred != "link" && !slices.ContainsFunc(c.deletes, f.Equal) {
			c.deletes = append(c.deletes, f)
		}
	}
	return c
}

// pushdownPreds are the predicates whose final tables are compared.
var pushdownPreds = []string{"e0", "e1", "e2", "e3", "d0", "d1", "d2", "dr", "am"}

// pushdownRun is one evaluation setting: a simulated Cluster or
// Central, the PSNBatch and Parallelism options, the leaf-only oracle
// placement, and (Central, no aggregates) one DRed deletion instead of
// count-algorithm deletions.
type pushdownRun struct {
	cluster, leaf, dred bool
	batch, par          int
}

// eval runs a case to fixpoint, deletes its deletion facts, and returns
// the OnDerive stream (node, rule, sign, tuple, in order), every final
// table, and the number of ops the pushdown plan places before the leaf.
func (r pushdownRun) eval(t *testing.T, pc pushdownCase) (stream []string, tables string, pushed int) {
	t.Helper()
	prog := mustParse(t, pc.src)
	record := func(node, rule string, d Delta) {
		stream = append(stream, fmt.Sprintf("%s %s %+d %s", node, rule, d.Sign, d.Tuple))
	}
	opts := Options{PSNBatch: r.batch, Parallelism: r.par, OnDerive: record}
	var tuples func(pred string) []val.Tuple
	if r.cluster {
		prog.Facts = append(prog.Facts, pc.facts...)
		sim := simnet.New(7)
		cl, err := NewCluster(sim, prog, opts, ClusterConfig{})
		if err != nil {
			t.Fatalf("NewCluster: %v\n%s", err, pc.src)
		}
		pushed = pushedOps(cl.prog)
		if r.leaf {
			leafOnly(cl.prog)
		}
		for _, id := range pushdownNodes {
			cl.AddNode(simnet.NodeID(id))
		}
		for i, a := range pushdownNodes {
			for _, b := range pushdownNodes[i+1:] {
				if err := sim.AddLink(simnet.NodeID(a), simnet.NodeID(b), 0.010, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
		runCluster(t, cl)
		for _, f := range pc.deletes {
			if err := cl.Inject(f.Loc(), Deletion(f)); err != nil {
				t.Fatal(err)
			}
		}
		if !sim.RunToQuiescence(5_000_000) {
			t.Fatal("cluster did not quiesce after deletions")
		}
		tuples = cl.Tuples
	} else {
		c, err := NewCentral(prog, opts)
		if err != nil {
			t.Fatalf("NewCentral: %v\n%s", err, pc.src)
		}
		pushed = pushedOps(c.prog)
		if r.leaf {
			leafOnly(c.prog)
		}
		for _, f := range pc.facts {
			c.node.Push(Insert(f))
		}
		c.Fixpoint()
		for _, f := range pc.deletes {
			if r.dred {
				if err := c.DeleteDRed(f); err != nil {
					t.Fatal(err)
				}
				break
			}
			c.Delete(f)
		}
		tuples = c.Tuples
	}
	var b strings.Builder
	for _, p := range pushdownPreds {
		fmt.Fprintf(&b, "%s %x\n", p, encodeFixpoint(tuples(p)))
	}
	return stream, b.String(), pushed
}

// TestPushdownEquivalenceRandomized checks that running each selection
// and assignment at the earliest join depth that binds its inputs
// changes nothing observable: on random programs the derivation stream
// and the final tables equal the leaf-only oracle's, on Central and on
// a simulated cluster, for batched and parallel drains, after count
// deletions and after a DRed deletion.
func TestPushdownEquivalenceRandomized(t *testing.T) {
	trials := 30
	if testing.Short() {
		trials = 8
	}
	configs := []pushdownRun{
		{batch: 1, par: 1},
		{batch: 16, par: 1},
		{batch: 1, par: 4},
		{batch: 16, par: 4},
		{cluster: true, batch: 1, par: 1},
		{cluster: true, batch: 16, par: 1},
		{cluster: true, batch: 16, par: 4},
		{dred: true, batch: 1, par: 1},
		{dred: true, batch: 16, par: 4},
	}
	pushedTotal, derivations := 0, 0
	for trial := 0; trial < trials; trial++ {
		for _, cfg := range configs {
			rng := rand.New(rand.NewSource(int64(7100 + trial)))
			pc := randomPushdownCase(rng, !cfg.dred)
			oracle := cfg
			oracle.leaf = true
			wantStream, wantTables, _ := oracle.eval(t, pc)
			gotStream, gotTables, pushed := cfg.eval(t, pc)
			pushedTotal += pushed
			derivations += len(gotStream)
			if gotTables != wantTables {
				t.Fatalf("trial %d %+v: final tables differ from the leaf-only oracle\n%s", trial, cfg, pc.src)
			}
			if i := firstDiff(gotStream, wantStream); i >= 0 {
				t.Fatalf("trial %d %+v: derivation %d differs from the leaf-only oracle (%d vs %d derivations)\ngot  %s\nwant %s\n%s",
					trial, cfg, i, len(gotStream), len(wantStream), at(gotStream, i), at(wantStream, i), pc.src)
			}
		}
	}
	// Guard against a vacuous pass: the generated rules must place ops
	// before the leaf and derive something.
	if pushedTotal == 0 || derivations == 0 {
		t.Fatalf("vacuous: %d ops pushed below the leaf, %d derivations", pushedTotal, derivations)
	}
}

func firstDiff(a, b []string) int {
	for i := range max(len(a), len(b)) {
		if i >= len(a) || i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return -1
}

func at(s []string, i int) string {
	if i < len(s) {
		return s[i]
	}
	return "<end>"
}

// opPlacement renders a strand's plan as one line per depth: the atom
// joined there and the tail ops placed after it.
func opPlacement(st *strand) []string {
	var terms []string
	for _, t := range st.rule.Body {
		switch t.(type) {
		case *ast.Assign, *ast.Select:
			terms = append(terms, t.String())
		}
	}
	var out []string
	for _, step := range st.steps {
		line := st.atoms[step.atom].Pred
		for _, op := range step.ops {
			i := slices.IndexFunc(st.code.tail, func(o tailOp) bool { return o.expr == op.expr })
			line += " | " + terms[i]
		}
		out = append(out, line)
	}
	return out
}

// TestOpPlacementGolden pins the placement on the shipped programs.
func TestOpPlacementGolden(t *testing.T) {
	p, err := compile(mustParse(t, programs.Chord(programs.DefaultChordConfig())))
	if err != nil {
		t.Fatal(err)
	}
	strandsOf := func(label string) []*strand {
		var out []*strand
		for _, sts := range p.strands {
			for _, st := range sts {
				if st.rule.Label == label {
					out = append(out, st)
				}
			}
		}
		if len(out) == 0 {
			t.Fatalf("no strands for rule %s", label)
		}
		return out
	}

	// l2, triggered by lookup: the candidate's range test and its
	// distance run once ident binds I, before bestSucc is joined; the
	// key's range test needs bestSucc's SI.
	for _, st := range strandsOf("l2") {
		if st.atoms[st.trigger].Pred != "lookup" {
			continue
		}
		want := []string{
			"lookup",
			"cand",
			"ident | f_inrangeoo(FI,I,K) == true | D := f_ringdist(I,FI)",
			"bestSucc | f_inrange(K,I,SI) == false",
		}
		if got := opPlacement(st); !slices.Equal(got, want) {
			t.Errorf("l2 lookup strand placement:\ngot  %q\nwant %q", got, want)
		}
	}

	// l3: every strand not triggered by #conn tests the hop distance
	// before it joins #conn.
	for _, st := range strandsOf("l3") {
		if st.atoms[st.trigger].Pred == "conn" {
			continue
		}
		plan := opPlacement(st)
		sel, conn := -1, -1
		for d, line := range plan {
			if strings.Contains(line, "D == f_ringdist(I,FI)") {
				sel = d
			}
			if strings.HasPrefix(line, "conn") {
				conn = d
			}
		}
		if sel < 0 || conn < 0 || sel >= conn {
			t.Errorf("l3 strand triggered by %s: selection at depth %d, #conn at depth %d: %q",
				st.atoms[st.trigger].Pred, sel, conn, plan)
		}
	}

	// Every shortest-path rule joins two atoms whose ops read both, so
	// all of them stay at the leaf.
	for _, src := range []string{programs.ShortestPath(""), programs.ShortestPathDV("")} {
		sp, err := compile(mustParse(t, src))
		if err != nil {
			t.Fatal(err)
		}
		if n := pushedOps(sp); n != 0 {
			t.Errorf("shortest path: %d ops placed before the leaf, want 0", n)
		}
	}
}

const deferredErrSrc = `
materialize(a, infinity, infinity, keys(1,2)).
materialize(b, infinity, infinity, keys(1,2)).
materialize(c, infinity, infinity, keys(1,2,3)).
materialize(out, infinity, infinity, keys(1,2,3,4)).
materialize(out2, infinity, infinity, keys(1,2,3)).
r out(@N, X, Y, Z) :- a(@N, X), b(@N, Y), Y > 0, c(@N, Y, Z).
r2 out2(@N, X, W) :- a(@N, X), b(@N, Y), W := Y * 2, X > 5 && W > 0, c(@N, Y, _Z).
`

// TestDeferredOpError checks the deferred-error rule: a selection that
// raises ErrType on a partial binding no later atom extends yields no
// error, and neither does a failed branch whose sibling derives; the
// same selection on a full candidate still errors. An op reading the
// slot of a failed assignment is skipped, not evaluated: r2's selection
// would short-circuit to false and hide the error that the leaf-only
// order raises.
func TestDeferredOpError(t *testing.T) {
	n := func(s string) val.Value { return val.NewAddr(s) }
	c, err := NewCentral(mustParse(t, deferredErrSrc), Options{})
	if err != nil {
		t.Fatal(err)
	}
	strands := map[string]*strand{}
	for _, s := range c.prog.strands["a"] {
		strands[s.rule.Label] = s
	}
	if got := opPlacement(strands["r"]); !slices.Equal(got, []string{"a", "b | Y > 0", "c"}) {
		t.Fatalf("r placement %q", got)
	}
	if got := opPlacement(strands["r2"]); !slices.Equal(got, []string{"a", "b | W := Y * 2 | X > 5 && W > 0", "c"}) {
		t.Fatalf("r2 placement %q", got)
	}
	trigger := val.NewTuple("a", n("x"), val.NewInt(1))
	runRule := func(label string) (int, error) {
		count := 0
		err := strands[label].run(c.node.resetCtx(+1, trigger, noLimit, noLimit), trigger, func(derived) { count++ })
		return count, err
	}
	run := func() (int, error) { return runRule("r") }

	// Y = "s" makes Y > 0 raise ErrType at depth 1; c has no row for it.
	c.node.Push(Insert(val.NewTuple("b", n("x"), val.NewString("s"))))
	c.node.Push(Insert(val.NewTuple("b", n("x"), val.NewInt(5))))
	c.node.Push(Insert(val.NewTuple("c", n("x"), val.NewInt(5), val.NewInt(9))))
	c.Fixpoint()
	if got, err := run(); err != nil || got != 1 {
		t.Fatalf("partial binding: %d derivations, err %v; want 1, nil", got, err)
	}
	c.Insert(trigger) // the engine's own path must not panic either
	if got := len(c.Tuples("out")); got != 1 {
		t.Fatalf("out has %d rows, want 1", got)
	}

	// A c row for Y = "s" completes the failing branch: now it errors.
	c.node.cat.Get("c").Insert(val.NewTuple("c", n("x"), val.NewString("s"), val.NewInt(9)), 1<<40, 0)
	if _, err := run(); !errors.Is(err, funcs.ErrType) {
		t.Fatalf("full candidate: err %v, want ErrType", err)
	}
	if _, err := runRule("r2"); !errors.Is(err, funcs.ErrType) {
		t.Fatalf("r2 full candidate after a failed assignment: err %v, want ErrType", err)
	}
}
