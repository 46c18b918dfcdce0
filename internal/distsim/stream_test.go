package distsim

import (
	"fmt"
	"maps"
	"sync"
	"testing"
	"time"

	"mpq/internal/algebra"
	"mpq/internal/authz"
	"mpq/internal/core"
	"mpq/internal/exec"
	"mpq/internal/oracle"
	"mpq/internal/planner"
)

// streamFixture prepares the running-example network and extended plan
// (Figure 7(a) assignment: selection at H, join and group-by at X, HAVING
// at Y) with keys distributed and constants dispatched.
func streamFixture(t *testing.T) (*Network, *core.ExtendedPlan, *exec.Executor, exec.ConstCache) {
	t.Helper()
	cat := exampleCatalog()
	plan, err := planner.New(cat).PlanSQL(runningQuery)
	if err != nil {
		t.Fatal(err)
	}
	sys := core.NewSystem(examplePolicy(), "H", "I", "U", "X", "Y")
	an := sys.Analyze(plan.Root, nil)
	var sel, join, grp, hav algebra.Node
	algebra.PostOrder(plan.Root, func(n algebra.Node) {
		switch x := n.(type) {
		case *algebra.Select:
			if _, isBase := x.Child.(*algebra.Base); isBase {
				sel = n
			} else {
				hav = n
			}
		case *algebra.Join:
			join = n
		case *algebra.GroupBy:
			grp = n
		}
	})
	ext, err := sys.Extend(an, core.Assignment{sel: "H", join: "X", grp: "X", hav: "Y"})
	if err != nil {
		t.Fatal(err)
	}
	nw := NewNetwork()
	nw.AddSubject("H", map[string]*exec.Table{"Hosp": hospTable()})
	nw.AddSubject("I", map[string]*exec.Table{"Ins": insTable()})
	full, err := nw.DistributeKeys(ext, testPaillierBits)
	if err != nil {
		t.Fatal(err)
	}
	consts, err := exec.PrepareConstants(ext.Root, full, exec.KindsFromCatalog(cat))
	if err != nil {
		t.Fatal(err)
	}
	user := exec.NewExecutor()
	user.Keys = full
	return nw, ext, user, consts
}

// fixtureOracle evaluates the fixture's extended plan on the centralized
// oracle and returns the decrypted result and the per-edge ledger the
// distributed runtime must reproduce.
func fixtureOracle(t *testing.T, ext *core.ExtendedPlan, user *exec.Executor, consts exec.ConstCache) (*exec.Table, map[string]int) {
	t.Helper()
	tables := map[authz.Subject]map[string]*exec.Table{
		"H": {"Hosp": hospTable()},
		"I": {"Ins": insTable()},
	}
	enc, edges, err := oracle.Run(ext, tables, user.Keys, nil, consts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := user.DecryptTable(enc)
	if err != nil {
		t.Fatal(err)
	}
	ledger := make(map[string]int, len(edges))
	for _, e := range edges {
		ledger[e.String()]++
	}
	return want, ledger
}

// TestExecuteStreamMatchesSequential: the batch-streaming fragment workers
// compute exactly the relation of the centralized oracle (values and
// order), and the ledger carries one entry per cross-subject edge with the
// oracle's (from, to, op, rows), the batch split recorded.
func TestExecuteStreamMatchesSequential(t *testing.T) {
	nw, ext, user, consts := streamFixture(t)
	want, wantEdges := fixtureOracle(t, ext, user, consts)

	run := nw.Clone()
	run.BatchSize = 3 // force multi-batch exchanges on the 8-row example
	var rows [][]exec.Value
	schema, transfers, err := run.ExecuteStreamCtx(nil, ext, consts, func(b [][]exec.Value) error {
		rows = append(rows, b...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(schema) != len(want.Schema) {
		t.Fatalf("schema width %d, want %d", len(schema), len(want.Schema))
	}
	gotTbl := exec.NewTable(schema)
	gotTbl.Rows = rows
	got, err := user.DecryptTable(gotTbl)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != want.Len() {
		t.Fatalf("rows = %d, want %d", got.Len(), want.Len())
	}
	for i := range want.Rows {
		if exec.DisplayString(got.Rows[i]) != exec.DisplayString(want.Rows[i]) {
			t.Errorf("row %d: %s, want %s", i, exec.DisplayString(got.Rows[i]), exec.DisplayString(want.Rows[i]))
		}
	}

	gotEdges := map[string]int{}
	for _, tr := range transfers {
		gotEdges[oracle.Edge{From: tr.From, To: tr.To, Op: tr.Op, Rows: tr.Rows}.String()]++
		if tr.Rows > run.BatchSize && tr.Batches < 2 {
			t.Errorf("edge %s→%s shipped %d rows in %d batch(es), expected a split", tr.From, tr.To, tr.Rows, tr.Batches)
		}
	}
	if !maps.Equal(gotEdges, wantEdges) {
		t.Errorf("ledger = %v, want %v", gotEdges, wantEdges)
	}
}

// TestExecuteStreamEmptyProductDrainsProbe: a cartesian product whose
// build side is empty must still drain its probe side, or the probe
// fragment's producer would block forever on the bounded exchange channel
// (regression test: BatchSize 1 makes the 8-row probe stream exceed the
// channel depth, so an undrained producer deadlocks ExecuteStreamCtx).
func TestExecuteStreamEmptyProductDrainsProbe(t *testing.T) {
	cat := exampleCatalog()
	// The planner pushes the selection onto Ins, leaving an implicit
	// cartesian product with an empty right side.
	plan, err := planner.New(cat).PlanSQL("select S, P from Hosp, Ins where P > 99999")
	if err != nil {
		t.Fatal(err)
	}
	sys := core.NewSystem(examplePolicy(), "H", "I", "U", "X", "Y")
	an := sys.Analyze(plan.Root, nil)
	lambda := make(core.Assignment)
	algebra.PostOrder(plan.Root, func(n algebra.Node) {
		if _, isBase := n.(*algebra.Base); isBase {
			return
		}
		if _, isSel := n.(*algebra.Select); isSel {
			lambda[n] = "I"
			return
		}
		lambda[n] = "U" // product and projection away from both authorities
	})
	ext, err := sys.Extend(an, lambda)
	if err != nil {
		t.Fatal(err)
	}
	nw := NewNetwork()
	nw.AddSubject("H", map[string]*exec.Table{"Hosp": hospTable()})
	nw.AddSubject("I", map[string]*exec.Table{"Ins": insTable()})
	full, err := nw.DistributeKeys(ext, testPaillierBits)
	if err != nil {
		t.Fatal(err)
	}
	consts, err := exec.PrepareConstants(ext.Root, full, exec.KindsFromCatalog(cat))
	if err != nil {
		t.Fatal(err)
	}

	run := nw.Clone()
	run.BatchSize = 1
	finished := make(chan error, 1)
	var rows [][]exec.Value
	go func() {
		_, _, err := run.ExecuteStreamCtx(nil, ext, consts, func(b [][]exec.Value) error {
			rows = append(rows, b...)
			return nil
		})
		finished <- err
	}()
	select {
	case err := <-finished:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("ExecuteStreamCtx deadlocked on an empty product build side")
	}
	if len(rows) != 0 {
		t.Fatalf("empty product produced %d rows", len(rows))
	}
}

// TestExecuteStreamConcurrent runs many streaming executions of the same
// prepared network in parallel (exercised under -race in CI): fragment
// workers of distinct runs must never share mutable state.
func TestExecuteStreamConcurrent(t *testing.T) {
	nw, ext, user, consts := streamFixture(t)
	want, _ := fixtureOracle(t, ext, user, consts)

	const runs = 8
	var wg sync.WaitGroup
	errs := make(chan error, runs)
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(batch int) {
			defer wg.Done()
			run := nw.Clone()
			run.BatchSize = batch
			var rows [][]exec.Value
			schema, _, err := run.ExecuteStreamCtx(nil, ext, consts, func(b [][]exec.Value) error {
				rows = append(rows, b...)
				return nil
			})
			if err != nil {
				errs <- err
				return
			}
			tbl := exec.NewTable(schema)
			tbl.Rows = rows
			got, err := user.DecryptTable(tbl)
			if err != nil {
				errs <- err
				return
			}
			if got.Len() != want.Len() {
				errs <- errRowCount{got.Len(), want.Len()}
				return
			}
			for r := range want.Rows {
				if g, w := exec.DisplayString(got.Rows[r]), exec.DisplayString(want.Rows[r]); g != w {
					errs <- fmt.Errorf("batch %d row %d: %s, want %s", batch, r, g, w)
					return
				}
			}
		}(1 + i%4)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

type errRowCount struct{ got, want int }

func (e errRowCount) Error() string { return "streamed row count differs from the oracle" }
