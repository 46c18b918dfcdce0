package distsim

import (
	"math"
	"testing"

	"mpq/internal/algebra"
	"mpq/internal/authz"
	"mpq/internal/core"
	"mpq/internal/exec"
	"mpq/internal/planner"
)

const testPaillierBits = 128

func exampleCatalog() *algebra.Catalog {
	cat := algebra.NewCatalog()
	cat.Add(&algebra.Relation{Name: "Hosp", Authority: "H", Rows: 8, Columns: []algebra.Column{
		{Name: "S", Type: algebra.TString, Width: 11, Distinct: 8},
		{Name: "B", Type: algebra.TDate, Width: 8, Distinct: 8},
		{Name: "D", Type: algebra.TString, Width: 20, Distinct: 3},
		{Name: "T", Type: algebra.TString, Width: 20, Distinct: 3},
	}})
	cat.Add(&algebra.Relation{Name: "Ins", Authority: "I", Rows: 10, Columns: []algebra.Column{
		{Name: "C", Type: algebra.TString, Width: 11, Distinct: 10},
		{Name: "P", Type: algebra.TFloat, Width: 8, Distinct: 9},
	}})
	return cat
}

func hospTable() *exec.Table {
	t := exec.NewTable([]algebra.Attr{
		algebra.A("Hosp", "S"), algebra.A("Hosp", "B"), algebra.A("Hosp", "D"), algebra.A("Hosp", "T"),
	})
	rows := []struct {
		s    string
		b    int64
		d, g string
	}{
		{"s1", 10, "stroke", "surgery"},
		{"s2", 11, "stroke", "medication"},
		{"s3", 12, "flu", "medication"},
		{"s4", 13, "stroke", "surgery"},
		{"s5", 14, "asthma", "inhaler"},
		{"s6", 15, "stroke", "medication"},
		{"s7", 16, "flu", "rest"},
		{"s8", 17, "stroke", "therapy"},
	}
	for _, r := range rows {
		t.Append([]exec.Value{exec.String(r.s), exec.Int(r.b), exec.String(r.d), exec.String(r.g)})
	}
	return t
}

func insTable() *exec.Table {
	t := exec.NewTable([]algebra.Attr{algebra.A("Ins", "C"), algebra.A("Ins", "P")})
	for _, r := range []struct {
		c string
		p float64
	}{
		{"s1", 150}, {"s2", 90}, {"s3", 200}, {"s4", 250}, {"s5", 80},
		{"s6", 130}, {"s7", 60}, {"s8", 40}, {"s9", 300}, {"s10", 20},
	} {
		t.Append([]exec.Value{exec.String(r.c), exec.Float(r.p)})
	}
	return t
}

func examplePolicy() *authz.Policy {
	p := authz.NewPolicy()
	p.MustGrant("Hosp", "H", []string{"S", "B", "D", "T"}, nil)
	p.MustGrant("Hosp", "U", []string{"S", "D", "T"}, nil)
	p.MustGrant("Hosp", "X", []string{"D", "T"}, []string{"S"})
	p.MustGrant("Hosp", "Y", []string{"B", "D", "T"}, []string{"S"})
	p.MustGrant("Ins", "I", []string{"C", "P"}, nil)
	p.MustGrant("Ins", "U", []string{"C", "P"}, nil)
	p.MustGrant("Ins", "X", nil, []string{"C", "P"})
	p.MustGrant("Ins", "Y", []string{"P"}, []string{"C"})
	return p
}

const runningQuery = "select T, avg(P) from Hosp join Ins on S=C where D='stroke' group by T having avg(P)>100"

// TestDistributedRunningExample executes the Figure 7(a) plan across H, I,
// X, and Y with per-subject key material, and compares the result against a
// trusted centralized plaintext execution.
func TestDistributedRunningExample(t *testing.T) {
	cat := exampleCatalog()
	plan, err := planner.New(cat).PlanSQL(runningQuery)
	if err != nil {
		t.Fatal(err)
	}

	// Trusted baseline: everything plaintext at one executor.
	trusted := exec.NewExecutor()
	trusted.Tables["Hosp"] = hospTable()
	trusted.Tables["Ins"] = insTable()
	want, _, err := trusted.RunPlan(plan)
	if err != nil {
		t.Fatal(err)
	}

	// Extended plan per Figure 7(a).
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

	// Network: H holds Hosp, I holds Ins, X and Y hold nothing.
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

	got, _, err := nw.ExecuteParallelCtx(nil, ext, consts)
	if err != nil {
		t.Fatal(err)
	}

	// Compare with the trusted baseline (order-insensitive).
	extPlan := *plan
	extPlan.Root = ext.Root
	// Project the distributed result like RunPlan does.
	finalExec := exec.NewExecutor()
	finalExec.Materialized = map[algebra.Node]*exec.Table{ext.Root: got}
	final, _, err := finalExec.RunPlan(&extPlan)
	if err != nil {
		t.Fatal(err)
	}
	if final.Len() != want.Len() {
		t.Fatalf("distributed rows = %d, want %d\n%s\nvs\n%s",
			final.Len(), want.Len(), final.Format(nil), want.Format(nil))
	}
	wantMap := map[string]float64{}
	for _, row := range want.Rows {
		f, _ := row[1].AsFloat()
		wantMap[row[0].S] = f
	}
	for _, row := range final.Rows {
		f, _ := row[1].AsFloat()
		if wf, ok := wantMap[row[0].S]; !ok || math.Abs(wf-f) > 1e-6 {
			t.Errorf("group %s = %v, want %v", row[0].S, f, wantMap[row[0].S])
		}
	}

	// Transfers occurred on the cross-subject edges: H→X, I→X, X→Y.
	if nw.BytesBetween("H", "X") == 0 || nw.BytesBetween("I", "X") == 0 || nw.BytesBetween("X", "Y") == 0 {
		t.Errorf("missing transfers: %+v", nw.Transfers)
	}
	if nw.TotalBytes() <= 0 {
		t.Errorf("transfer ledger empty")
	}

	// X must hold no symmetric key material (it operates on ciphertexts).
	for _, id := range nw.Subject("X").Keys.IDs() {
		ring, _ := nw.Subject("X").Keys.Get(id)
		if ring.CanDecrypt() {
			t.Errorf("provider X holds symmetric material for %s", id)
		}
	}
	// Y holds kP in full (it decrypts the average).
	ringP, err := nw.Subject("Y").Keys.Get("kP")
	if err != nil || !ringP.CanDecrypt() {
		t.Errorf("Y should hold kP: %v", err)
	}
}

// TestDistributedMatchesCentralizedOnVariants runs several assignments of
// the running example and checks every one against the trusted baseline.
func TestDistributedMatchesCentralizedOnVariants(t *testing.T) {
	cat := exampleCatalog()
	plan, err := planner.New(cat).PlanSQL(runningQuery)
	if err != nil {
		t.Fatal(err)
	}
	trusted := exec.NewExecutor()
	trusted.Tables["Hosp"] = hospTable()
	trusted.Tables["Ins"] = insTable()
	want, _, err := trusted.RunPlan(plan)
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
	assignments := []core.Assignment{
		{sel: "H", join: "X", grp: "X", hav: "Y"}, // Figure 7(a)
		{sel: "U", join: "U", grp: "U", hav: "U"}, // all at the user
		{sel: "H", join: "Y", grp: "Y", hav: "Y"}, // provider with plaintext P
		{sel: "X", join: "X", grp: "X", hav: "U"}, // selection over ciphertext
	}
	for i, lambda := range assignments {
		ext, err := sys.Extend(an, lambda)
		if err != nil {
			t.Fatalf("assignment %d: %v", i, err)
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
		got, _, err := nw.ExecuteParallelCtx(nil, ext, consts)
		if err != nil {
			t.Fatalf("assignment %d: %v\n%s", i, err, algebra.Format(ext.Root, nil))
		}
		// The final relation may still hold some encrypted columns if the
		// root executor differs from the user; decrypt with the user's full
		// key store for comparison.
		userExec := exec.NewExecutor()
		userExec.Keys = full
		userExec.Materialized = map[algebra.Node]*exec.Table{ext.Root: got}
		extPlan := *plan
		extPlan.Root = ext.Root
		final, _, err := userExec.RunPlan(&extPlan)
		if err != nil {
			t.Fatalf("assignment %d finalize: %v", i, err)
		}
		if final.Len() != want.Len() {
			t.Fatalf("assignment %d: rows = %d, want %d", i, final.Len(), want.Len())
		}
		wantMap := map[string]float64{}
		for _, row := range want.Rows {
			f, _ := row[1].AsFloat()
			wantMap[row[0].S] = f
		}
		for _, row := range final.Rows {
			v := row[1]
			if v.IsCipher() {
				dec, derr := decryptWith(userExec, v)
				if derr != nil {
					t.Fatalf("assignment %d: %v", i, derr)
				}
				v = dec
			}
			f, _ := v.AsFloat()
			key := row[0]
			if key.IsCipher() {
				dec, derr := decryptWith(userExec, key)
				if derr != nil {
					t.Fatalf("assignment %d: %v", i, derr)
				}
				key = dec
			}
			if wf, ok := wantMap[key.S]; !ok || math.Abs(wf-f) > 1e-6 {
				t.Errorf("assignment %d: group %v = %v, want %v", i, key, f, wantMap[key.S])
			}
		}
	}
}

// decryptWith decrypts a value via a Decrypt plan node (exercising the
// public path rather than internals).
func decryptWith(e *exec.Executor, v exec.Value) (exec.Value, error) {
	a := algebra.A("tmp", "v")
	tbl := exec.NewTable([]algebra.Attr{a})
	tbl.Append([]exec.Value{v})
	base := algebra.NewBase("tmp", "x", []algebra.Attr{a}, 1, nil)
	e.Tables["tmp"] = tbl
	dec := algebra.NewDecrypt(base, []algebra.Attr{a})
	dec.KeyIDs[a] = v.C.KeyID
	out, err := e.Run(dec)
	if err != nil {
		return exec.Value{}, err
	}
	return out.Rows[0][0], nil
}

func TestUDFOverNetwork(t *testing.T) {
	cat := exampleCatalog()
	plan, err := planner.New(cat).PlanSQL("select risk(B, D) as r from Hosp where T <> 'rest'")
	if err != nil {
		t.Fatal(err)
	}
	pol := examplePolicy()
	sys := core.NewSystem(pol, "H", "I", "U", "X", "Y")
	an := sys.Analyze(plan.Root, nil)
	if err := an.Feasible(); err != nil {
		t.Fatal(err)
	}
	// Assign everything to H (it sees Hosp in plaintext).
	lambda := make(core.Assignment)
	algebra.PostOrder(plan.Root, func(n algebra.Node) {
		if len(n.Children()) > 0 {
			lambda[n] = "H"
		}
	})
	ext, err := sys.Extend(an, lambda)
	if err != nil {
		t.Fatal(err)
	}
	nw := NewNetwork()
	nw.AddSubject("H", map[string]*exec.Table{"Hosp": hospTable()})
	nw.UDFs["risk"] = func(args []exec.Value) (exec.Value, error) {
		b, _ := args[0].AsFloat()
		return exec.Float(b * 1.5), nil
	}
	if _, err := nw.DistributeKeys(ext, testPaillierBits); err != nil {
		t.Fatal(err)
	}
	got, _, err := nw.ExecuteParallelCtx(nil, ext, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 7 {
		t.Errorf("rows = %d, want 7", got.Len())
	}
}

func TestValueBytesAccounting(t *testing.T) {
	if valueBytes(exec.Int(1)) != 8 || valueBytes(exec.Float(1)) != 8 {
		t.Errorf("scalar accounting wrong")
	}
	if valueBytes(exec.String("abcd")) != 4 {
		t.Errorf("string accounting wrong")
	}
	if valueBytes(exec.Null()) != 1 {
		t.Errorf("null accounting wrong")
	}
}
