// Package oracle is the reference the distributed runtime is tested
// against. Run evaluates an extended, assigned plan on one centralized
// exec.Executor — every subject's tables, the full key store, the UDFs and
// the dispatched constants in one place — on the row-at-a-time
// materializing evaluator, and reports the rows each cross-subject edge of
// the plan must carry. Only tests import it.
package oracle

import (
	"fmt"

	"mpq/internal/algebra"
	"mpq/internal/authz"
	"mpq/internal/core"
	"mpq/internal/crypto"
	"mpq/internal/exec"
)

// Edge is one cross-subject edge of the extended plan: the producing and
// consuming subjects, the consuming operation, and the row count of the
// producing subtree — what the distributed ledger must account for it.
type Edge struct {
	From, To authz.Subject
	Op       string
	Rows     int
}

// String renders the edge as the ledger multiset key "from→to op rows=n".
func (e Edge) String() string {
	return fmt.Sprintf("%s→%s %s rows=%d", e.From, e.To, e.Op, e.Rows)
}

// Run evaluates ext centrally. tables places each subject's relations (a
// base relation is read from its host), keys holds every ring of the plan,
// and consts the dispatched predicate constants. It returns the root
// relation exactly as the root subject hands it to the user (still
// encrypted where the plan leaves it so) and one Edge per cross-subject
// edge, in post-order.
func Run(ext *core.ExtendedPlan, tables map[authz.Subject]map[string]*exec.Table, keys *crypto.KeyStore, udfs map[string]exec.UDFFunc, consts exec.ConstCache) (*exec.Table, []Edge, error) {
	ex := exec.NewExecutor()
	ex.Keys = keys
	ex.Consts = consts
	ex.Materializing = true
	ex.Materialized = make(map[algebra.Node]*exec.Table)
	for name, fn := range udfs {
		ex.UDFs[name] = fn
	}
	executor := func(n algebra.Node) authz.Subject {
		if b, ok := n.(*algebra.Base); ok {
			return authz.Subject(b.Host())
		}
		return ext.Assign[n]
	}
	var edges []Edge
	var eval func(n algebra.Node) (*exec.Table, error)
	eval = func(n algebra.Node) (*exec.Table, error) {
		if b, ok := n.(*algebra.Base); ok {
			t, ok := tables[authz.Subject(b.Host())][b.Name]
			if !ok {
				return nil, fmt.Errorf("oracle: %s holds no table %q", b.Host(), b.Name)
			}
			ex.Tables[b.Name] = t
		}
		for _, c := range n.Children() {
			ct, err := eval(c)
			if err != nil {
				return nil, err
			}
			ex.Materialized[c] = ct
			if from, to := executor(c), executor(n); from != to {
				edges = append(edges, Edge{From: from, To: to, Op: n.Op(), Rows: ct.Len()})
			}
		}
		return ex.Run(n)
	}
	root, err := eval(ext.Root)
	if err != nil {
		return nil, nil, err
	}
	return root, edges, nil
}
