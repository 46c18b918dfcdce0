package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"mpq/internal/algebra"
	"mpq/internal/assignment"
	"mpq/internal/authz"
	"mpq/internal/core"
	"mpq/internal/crypto"
	"mpq/internal/distsim"
	"mpq/internal/engine"
	"mpq/internal/exec"
	"mpq/internal/obs"
	"mpq/internal/planner"
	"mpq/internal/sql"
	"mpq/internal/tpch"
)

// Process counters read before and after every replayed layer call.
const (
	cDetEnc = iota
	cDetDec
	cRndEnc
	cRndDec
	cOPEEnc
	cOPEDec
	cPheEnc
	cPheDec
	cPoolHits
	cPoolMisses
	cSpillWritten
	cSpillRead
	cSpillParts
	cSpillWriteSec
	cSpillReadSec
	cDictEncEntries
	cDictEncCells
	cAllocBytes
	cGCCycles
	nCounters
)

var counterNames = [nCounters]string{
	"crypto.det.encrypt_values", "crypto.det.decrypt_values",
	"crypto.rnd.encrypt_values", "crypto.rnd.decrypt_values",
	"crypto.ope.encrypt_values", "crypto.ope.decrypt_values",
	"crypto.phe.encrypt_values", "crypto.phe.decrypt_values",
	"crypto.phe.pool_hits", "crypto.phe.pool_misses",
	"spill.bytes_written", "spill.bytes_read", "spill.partitions",
	"spill.write_s", "spill.read_s",
	"exec.dict.encrypt_entries", "exec.dict.encrypt_cells",
	"go.alloc_bytes", "go.gc_cycles",
}

type counters [nCounters]float64

func (c *counters) sub(a, b *counters) {
	for i := range c {
		c[i] = a[i] - b[i]
	}
}

func (c *counters) add(d *counters) {
	for i := range c {
		c[i] += d[i]
	}
}

// counterReader snapshots the public process counters: crypto.ReadStats,
// the exec spill and dictionary counters, and the Go runtime's allocation
// and GC totals (runtime/metrics, which unlike runtime.ReadMemStats does not
// stop the world).
type counterReader struct{ rt []metrics.Sample }

func newCounterReader() *counterReader {
	return &counterReader{rt: []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}}
}

func (r *counterReader) read(c *counters) {
	cs := crypto.ReadStats()
	c[cDetEnc], c[cDetDec] = float64(cs.DetEncrypts), float64(cs.DetDecrypts)
	c[cRndEnc], c[cRndDec] = float64(cs.RndEncrypts), float64(cs.RndDecrypts)
	c[cOPEEnc], c[cOPEDec] = float64(cs.OPEEncrypts), float64(cs.OPEDecrypts)
	c[cPheEnc], c[cPheDec] = float64(cs.PheEncrypts), float64(cs.PheDecrypts)
	c[cPoolHits], c[cPoolMisses] = float64(cs.PaillierPoolHits), float64(cs.PaillierPoolMisses)
	ss := exec.ReadSpillStats()
	c[cSpillWritten], c[cSpillRead], c[cSpillParts] = float64(ss.BytesWritten), float64(ss.BytesRead), float64(ss.Partitions)
	c[cSpillWriteSec] = exec.ReadSpillPhase("write").Sum
	c[cSpillReadSec] = exec.ReadSpillPhase("read").Sum
	ds := exec.ReadDictStats()
	c[cDictEncEntries], c[cDictEncCells] = float64(ds.EncEntries), float64(ds.EncCells)
	metrics.Read(r.rt)
	c[cAllocBytes] = float64(r.rt[0].Value.Uint64())
	c[cGCCycles] = float64(r.rt[1].Value.Uint64())
}

// span is one replayed layer call. Spans of one operation share Op; the
// operation's own span has Parent 0 and covers its layer calls.
type span struct {
	ID     int
	Parent int
	Op     int
	Query  int
	Name   string
	Start  int64 // ns since the run's epoch
	End    int64
	Delta  counters // process counters moved during the call
}

// Operator classes of the per-operator self times.
const (
	opScan = iota
	opFilter
	opProject
	opJoin
	opGroupBy
	opOther
	nOpClasses
)

var opClassNames = [nOpClasses]string{"scan", "filter", "project", "join", "groupby", "other"}

// Schemes in increasing cost order; a crypto operator over several schemes
// is charged to the costliest.
var schemes = []algebra.Scheme{algebra.SchemeDeterministic, algebra.SchemeRandom, algebra.SchemeOPE, algebra.SchemePaillier}

func schemeIndex(s algebra.Scheme) int {
	for i, x := range schemes {
		if x == s {
			return i
		}
	}
	return 0
}

// engineLayers are the replayed layer calls that fall inside one of the
// engine's own mpq_engine_phase_seconds phases; the mutation, the plan-cache
// lookup and the network construction fall outside them.
var engineLayers = []string{
	"sql.parse", "planner.plan", "core.check", "core.analyze", "assignment.optimize",
	"distsim.keys", "exec.consts", "distsim.execute", "finalize.decrypt", "finalize.run",
}

// replayTotals accumulates the recorded replay operations.
type replayTotals struct {
	ops, hits, misses, failed int
	opNs                      int64
	layerNs                   map[string]int64
	delta                     counters
	opSelfNs                  [nOpClasses]int64
	encNs, decNs              [4]int64
	edges, rows, bytes        int64
	batches                   int64
}

// prepared is the replay's plan-cache entry, the counterpart of the
// engine's prepared query.
type prepared struct {
	plan        *planner.Plan
	res         *assignment.Result
	nw          *distsim.Network
	keys        *crypto.KeyStore
	consts      exec.ConstCache
	paillierPKs []*crypto.Paillier
	refilling   atomic.Bool
}

// refillRandomizerCount mirrors the engine: each plan-cache hit tops every
// Paillier key of the plan up by this many pooled randomizers, off the
// query path.
const refillRandomizerCount = 256

// replay re-executes the engine's query path layer by layer through each
// layer's public function, timing every call and reading the process
// counters around it. It owns its own policy and plan cache, so it sees
// the same cache hits and misses as the engine under the same operations.
type replay struct {
	cfg     engine.Config
	w       *workload
	policy  *authz.Policy
	planner *planner.Planner
	kinds   exec.AttrKinds
	cache   map[string]*prepared
	mut     mutator
	ctr     *counterReader
	refills sync.WaitGroup // background randomizer refills

	epoch  time.Time
	record bool // keep spans and totals (off during the warm-up round)
	nextID int
	spans  []span
	tot    replayTotals
}

func newReplay(cfg engine.Config, w *workload, epoch time.Time) *replay {
	return &replay{
		cfg:     cfg,
		w:       w,
		policy:  tpch.Policy(cfg.Catalog, w.scenario),
		planner: planner.New(cfg.Catalog),
		kinds:   exec.KindsFromCatalog(cfg.Catalog),
		cache:   make(map[string]*prepared),
		mut:     mutator{cols: churnColumns(w)},
		ctr:     newCounterReader(),
		epoch:   epoch,
		tot:     replayTotals{layerNs: make(map[string]int64)},
	}
}

// call runs fn as one layer span under parent.
func (r *replay) call(name string, parent *span, fn func() error) error {
	var before, after counters
	r.ctr.read(&before)
	start := time.Since(r.epoch)
	err := fn()
	end := time.Since(r.epoch)
	r.ctr.read(&after)
	if !r.record {
		return err
	}
	r.nextID++
	s := span{ID: r.nextID, Parent: parent.ID, Op: parent.Op, Query: parent.Query,
		Name: name, Start: int64(start), End: int64(end)}
	s.Delta.sub(&after, &before)
	r.spans = append(r.spans, s)
	r.tot.layerNs[name] += int64(end - start)
	return err
}

// op replays one operation: the churn mutation (if any), then the engine's
// query path, and checks the result against want.
func (r *replay) op(ctx context.Context, q query, want string) {
	r.nextID++
	root := span{ID: r.nextID, Op: r.nextID, Query: q.num, Name: "op"}
	var before, after counters
	r.ctr.read(&before)
	start := time.Since(r.epoch)
	got, tr, ext, hit, err := r.run(ctx, &root, q)
	end := time.Since(r.epoch)
	r.ctr.read(&after)
	if !r.record {
		return
	}
	root.Start, root.End = int64(start), int64(end)
	root.Delta.sub(&after, &before)
	r.spans = append(r.spans, root)
	t := &r.tot
	t.ops++
	t.opNs += int64(end - start)
	t.delta.add(&root.Delta)
	if hit {
		t.hits++
	} else {
		t.misses++
	}
	if err != nil || canon(got) != want {
		t.failed++
	}
	if tr != nil {
		r.operatorTimes(ext, tr)
		for _, e := range tr.Edges() {
			t.edges++
			t.rows += e.Rows
			t.bytes += e.Bytes
			t.batches += e.Batches
		}
	}
}

// run is the engine's mutation + parse + admit + execute + finalize
// sequence (engine.Query, Grant, Revoke) spelled out over the public layer
// functions, one span per call.
func (r *replay) run(ctx context.Context, root *span, q query) (*exec.Table, *obs.Trace, *core.ExtendedPlan, bool, error) {
	if r.w.churn {
		err := r.call("engine.mutate", root, func() error {
			err := r.mut.next(func(rel string, s authz.Subject, plain []string) error {
				return r.policy.Grant(rel, s, plain, nil)
			}, r.policy.Revoke)
			// Every mutation flushes the plan cache, as Engine.Grant and
			// Engine.Revoke do.
			r.cache = make(map[string]*prepared)
			return err
		})
		if err != nil {
			return nil, nil, nil, false, err
		}
	}
	var stmt *sql.SelectStmt
	if err := r.call("sql.parse", root, func() (err error) {
		stmt, err = sql.Parse(q.sql)
		return err
	}); err != nil {
		return nil, nil, nil, false, err
	}
	var pq *prepared
	var fp string
	_ = r.call("engine.plan_cache", root, func() error {
		sum := sha256.Sum256([]byte(stmt.String()))
		fp = hex.EncodeToString(sum[:])
		pq = r.cache[fp]
		return nil
	})
	hit := pq != nil
	if hit {
		r.refillRandomizers(pq)
	} else {
		var err error
		if pq, err = r.prepare(root, stmt); err != nil {
			return nil, nil, nil, false, err
		}
		r.cache[fp] = pq
	}
	ext := pq.res.Extended
	tr := obs.NewTrace()
	var table *exec.Table
	if err := r.call("distsim.execute", root, func() (err error) {
		run := pq.nw.Clone()
		run.Trace = tr
		table, _, err = run.ExecuteParallelCtx(ctx, ext, pq.consts)
		return err
	}); err != nil {
		return nil, nil, nil, hit, err
	}
	f := exec.NewExecutor()
	f.Keys = pq.keys
	f.CryptoWorkers = r.cfg.CryptoWorkers
	var dec *exec.Table
	if err := r.call("finalize.decrypt", root, func() (err error) {
		dec, err = f.DecryptTable(table)
		return err
	}); err != nil {
		return nil, tr, ext, hit, err
	}
	var final *exec.Table
	err := r.call("finalize.run", root, func() (err error) {
		f.Materialized = map[algebra.Node]*exec.Table{ext.Root: dec}
		extPlan := *pq.plan
		extPlan.Root = ext.Root
		final, _, err = f.RunPlan(&extPlan)
		return err
	})
	return final, tr, ext, hit, err
}

// prepare is the engine's cold preparation: plan, authorize, analyze,
// assign, build the network, distribute keys, and pre-encrypt constants.
func (r *replay) prepare(root *span, stmt *sql.SelectStmt) (*prepared, error) {
	sys := core.NewSystem(r.policy, r.cfg.Subjects...)
	sys.Types = r.cfg.Catalog.TypesOf()
	pq := &prepared{}
	if err := r.call("planner.plan", root, func() (err error) {
		pq.plan, err = r.planner.PlanWith(stmt, planner.PlanOptions{Mode: planner.ModeCost})
		return err
	}); err != nil {
		return nil, err
	}
	if err := r.call("core.check", root, func() error {
		return sys.CheckUserAccess(r.cfg.User, pq.plan.Root)
	}); err != nil {
		return nil, err
	}
	var an *core.Analysis
	_ = r.call("core.analyze", root, func() error {
		an = sys.Analyze(pq.plan.Root, nil)
		return nil
	})
	if err := r.call("assignment.optimize", root, func() (err error) {
		pq.res, err = assignment.Optimize(sys, an, r.cfg.Model, assignment.Options{})
		return err
	}); err != nil {
		return nil, err
	}
	_ = r.call("distsim.network", root, func() error {
		nw := distsim.NewNetwork()
		nw.CryptoWorkers = r.cfg.CryptoWorkers
		nw.MemBudget = r.cfg.MemBudget
		nw.SpillDir = r.cfg.SpillDir
		for s, tables := range r.cfg.Tables {
			nw.AddSubject(s, tables)
		}
		pq.nw = nw
		return nil
	})
	if err := r.call("distsim.keys", root, func() (err error) {
		pq.keys, err = pq.nw.DistributeKeys(pq.res.Extended, r.cfg.PaillierBits)
		return err
	}); err != nil {
		return nil, err
	}
	if err := r.call("exec.consts", root, func() (err error) {
		pq.consts, err = exec.PrepareConstants(pq.res.Extended.Root, pq.keys, r.kinds)
		return err
	}); err != nil {
		return nil, err
	}
	pq.paillierPKs = paillierKeysOf(pq.res.Extended.Root, pq.keys)
	return pq, nil
}

// refillRandomizers mirrors the engine's cache-hit refill: at most one
// background top-up of the plan's Paillier randomizer pools at a time.
func (r *replay) refillRandomizers(pq *prepared) {
	if len(pq.paillierPKs) == 0 || !pq.refilling.CompareAndSwap(false, true) {
		return
	}
	r.refills.Add(1)
	go func() {
		defer r.refills.Done()
		defer pq.refilling.Store(false)
		for _, pk := range pq.paillierPKs {
			_ = pk.PrecomputeRandomizers(refillRandomizerCount) // a failed top-up only leaves the pool smaller
		}
	}()
}

// paillierKeysOf collects the distinct Paillier public keys the extended
// plan encrypts under.
func paillierKeysOf(root algebra.Node, keys *crypto.KeyStore) []*crypto.Paillier {
	var pks []*crypto.Paillier
	seen := make(map[*crypto.Paillier]bool)
	algebra.PostOrder(root, func(n algebra.Node) {
		enc, ok := n.(*algebra.Encrypt)
		if !ok {
			return
		}
		for _, a := range enc.Attrs {
			if enc.Schemes[a] != algebra.SchemePaillier {
				continue
			}
			ring, err := keys.Get(enc.KeyIDs[a])
			if err != nil || ring.PK == nil || seen[ring.PK] {
				continue
			}
			seen[ring.PK] = true
			pks = append(pks, ring.PK)
		}
	})
	return pks
}

// operatorTimes adds each traced operator's self time (its inclusive span
// minus its children's) to the totals, by operator class and, for the
// encrypt and decrypt operators, by scheme.
func (r *replay) operatorTimes(ext *core.ExtendedPlan, tr *obs.Trace) {
	t := &r.tot
	algebra.PostOrder(ext.Root, func(n algebra.Node) {
		sp := tr.ByRef(n)
		if sp == nil {
			return
		}
		self := sp.Nanos()
		for _, c := range n.Children() {
			if cs := tr.ByRef(c); cs != nil {
				self -= cs.Nanos()
			}
		}
		self = max(self, 0)
		switch x := n.(type) {
		case *algebra.Base:
			t.opSelfNs[opScan] += self
		case *algebra.Select:
			t.opSelfNs[opFilter] += self
		case *algebra.Project:
			t.opSelfNs[opProject] += self
		case *algebra.Join, *algebra.Product:
			t.opSelfNs[opJoin] += self
		case *algebra.GroupBy:
			t.opSelfNs[opGroupBy] += self
		case *algebra.Encrypt:
			t.encNs[costliest(x.Attrs, x.Schemes)] += self
		case *algebra.Decrypt:
			t.decNs[costliest(x.Attrs, ext.Schemes)] += self
		default:
			t.opSelfNs[opOther] += self
		}
	})
}

func costliest(attrs []algebra.Attr, sch map[algebra.Attr]algebra.Scheme) int {
	best := 0
	for _, a := range attrs {
		best = max(best, schemeIndex(sch[a]))
	}
	return best
}

// layerMs returns the mean time per operation of the named layer calls.
func (t *replayTotals) layerMs(names ...string) float64 {
	var ns int64
	for _, n := range names {
		ns += t.layerNs[n]
	}
	return perOp(float64(ns)/1e6, t.ops)
}

func perOp(v float64, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return v / float64(ops)
}

// layerShare is one module's self time per operation.
type layerShare struct {
	Layer string  `json:"layer"`
	Ms    float64 `json:"ms_per_query"`
}

// moduleShares splits the replayed operations' time by module, the layers
// the benchmark reports: operator self times are charged to exec, minus the
// spill I/O inside them (exec/spill) and the crypto operators (crypto, per
// scheme and direction); distsim keeps key distribution plus whatever part
// of fragment execution no operator span covers.
func (t *replayTotals) moduleShares() []layerShare {
	ms := func(ns int64) float64 { return perOp(float64(ns)/1e6, t.ops) }
	var opNs, cryptoNs int64
	for _, ns := range t.opSelfNs {
		opNs += ns
	}
	for i := range schemes {
		cryptoNs += t.encNs[i] + t.decNs[i]
	}
	spillMs := perOp((t.delta[cSpillWriteSec]+t.delta[cSpillReadSec])*1e3, t.ops)
	execute := t.layerMs("distsim.execute")
	out := []layerShare{
		{"sql", t.layerMs("sql.parse")},
		{"planner", t.layerMs("planner.plan")},
		{"core", t.layerMs("core.check", "core.analyze")},
		{"assignment", t.layerMs("assignment.optimize")},
		{"distsim", t.layerMs("distsim.network", "distsim.keys") + max(execute-ms(opNs+cryptoNs), 0)},
		{"exec", t.layerMs("exec.consts") + max(ms(opNs)-spillMs, 0)},
		{"exec/spill", spillMs},
		{"engine", t.layerMs("engine.mutate", "engine.plan_cache", "finalize.decrypt", "finalize.run")},
	}
	for i, s := range schemes {
		out = append(out,
			layerShare{fmt.Sprintf("crypto.%s.encrypt", s), ms(t.encNs[i])},
			layerShare{fmt.Sprintf("crypto.%s.decrypt", s), ms(t.decNs[i])})
	}
	return out
}
