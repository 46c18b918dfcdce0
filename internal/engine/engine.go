package engine

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mpq/internal/algebra"
	"mpq/internal/assignment"
	"mpq/internal/authz"
	"mpq/internal/core"
	"mpq/internal/cost"
	"mpq/internal/crypto"
	"mpq/internal/distsim"
	"mpq/internal/exec"
	"mpq/internal/obs"
	"mpq/internal/planner"
	"mpq/internal/sql"
)

// Config assembles an Engine: the deployment (catalog, policy, subjects,
// price model), the data placement, and the runtime knobs.
type Config struct {
	// Catalog describes the base relations and their statistics.
	Catalog *algebra.Catalog
	// Policy is the mutable authorization state. The engine owns it after
	// construction: mutate it only through Engine.Grant and Engine.Revoke.
	Policy *authz.Policy
	// User is the querying subject; it must be authorized for every base
	// relation of each submitted query.
	User authz.Subject
	// Subjects are the candidate executors (user, authorities, providers).
	Subjects []authz.Subject
	// Model prices assignments (Section 7). Required.
	Model *cost.Model
	// Tables places each subject's local relations.
	Tables map[authz.Subject]map[string]*exec.Table
	// UDFs are network-wide user defined functions.
	UDFs map[string]exec.UDFFunc
	// StorageRings are pre-established at-rest encryption rings for
	// outsourced relations, handed out instead of fresh rings.
	StorageRings []*crypto.KeyRing
	// PaillierBits is the per-prime size in bits of the homomorphic key
	// pairs generated for query-plan keys (the modulus is twice as wide);
	// 0 means crypto.DefaultPaillierBits.
	PaillierBits int
	// CryptoWorkers sizes the intra-batch crypto worker pool used by the
	// encrypt/decrypt operators and user-side finalization on large
	// batches: 0 means GOMAXPROCS, negative disables the pool.
	CryptoWorkers int
	// LinkDelay, when set, simulates wide-area link latency on every
	// inter-subject transfer (see distsim.LinkDelay).
	LinkDelay *distsim.LinkDelay
	// CacheSize bounds the authorized-plan cache (entries). 0 means the
	// default (256); negative disables caching.
	CacheSize int
	// BatchSize is the number of rows per pipeline batch exchanged between
	// operators and fragment workers (0 means exec.DefaultBatchSize).
	BatchSize int
	// Workers sizes each subject's morsel worker pool: table-anchored
	// pipeline segments (and group-by builds above them) split into fixed
	// row-ranges over the cached column vectors and execute concurrently,
	// row-for-row identical to single-threaded execution. 0 or 1 =
	// single-threaded fragments. Registered UDFs must be safe for
	// concurrent calls when Workers > 1.
	Workers int
	// MorselRows overrides the fixed morsel length in rows (0 means
	// exec.DefaultMorselRows).
	MorselRows int
	// MemBudget caps the bytes of live operator state (hash-join build
	// sides, group-by tables) one query run may pin in memory across all
	// its fragments. When a reservation against the budget fails, the
	// operator partitions its state to disk (grace-hash spilling) and
	// recurses over the partitions, trading I/O for a bounded footprint.
	// 0 or negative disables the budget: queries hold everything resident.
	MemBudget int64
	// SpillDir is the directory spill runs are created under when MemBudget
	// forces state to disk ("" means the OS temp directory).
	SpillDir string
	// PartialShuffle enables pre-shuffle partial aggregation: when a
	// cross-subject edge feeds a group-by directly, the producing fragment
	// folds COUNT/SUM/MIN/MAX/AVG partials per group before shipping and
	// the consumer merges them, shrinking the transfer to one row per
	// group. Results are identical; the ledger records the reduced bytes.
	PartialShuffle bool
	// QueryTimeout is the default deadline of every query: a run exceeding
	// it is cancelled within one batch of work and fails with
	// context.DeadlineExceeded. A caller context that carries its own
	// deadline (mpqd's ?timeout=) overrides it; 0 disables the default.
	QueryTimeout time.Duration
	// MaxConcurrent caps in-flight queries (admission control): queries
	// beyond the cap wait in a bounded queue and overloads are rejected
	// with ErrOverloaded instead of stacking up without bound. 0 disables
	// admission control.
	MaxConcurrent int
	// MaxQueue bounds the admission wait queue (only with MaxConcurrent
	// set). 0 means no queue: the query is rejected the moment the cap is
	// reached.
	MaxQueue int
	// QueueWait bounds how long an admitted-but-capped query waits for an
	// execution slot before failing with ErrQueueTimeout (0 means
	// DefaultQueueWait).
	QueueWait time.Duration
	// Faults arms the fault-injection harness on every prepared network
	// (chaos tests only; see distsim.Faults). Nil in production.
	Faults *distsim.Faults
	// PlannerMode selects the join-ordering strategy: PlannerCost
	// (default) plans left-deep in FROM order with textbook selectivity
	// estimation; PlannerGreedy orders joins greedily from predicate
	// patterns without trusting statistics; PlannerAdaptive plans greedily
	// and additionally re-optimizes cached plans whose estimates diverge
	// from observed cardinalities (see ReplanErrorFactor).
	PlannerMode string
	// ReplanErrorFactor is the q-error threshold of adaptive mode: a
	// cache hit whose worst per-node estimate-vs-observed factor exceeds
	// it is re-planned with the observed cardinalities injected as
	// estimator overrides. 0 means the default (4); negative disables
	// re-planning while keeping greedy planning.
	ReplanErrorFactor float64
	// ReplanMinRows ignores nodes where both the estimate and the
	// observation fall below it when computing the re-plan trigger
	// (small absolute misestimates are noise). 0 means the default (64).
	ReplanMinRows float64
}

// Planner modes for Config.PlannerMode.
const (
	PlannerCost     = "cost"
	PlannerGreedy   = "greedy"
	PlannerAdaptive = "adaptive"
)

const defaultCacheSize = 256

// Engine is a long-lived query service; all methods are safe for concurrent
// use.
type Engine struct {
	cfg     Config
	planner *planner.Planner
	// sys carries the capability and type configuration; each cold
	// preparation builds a fresh System from it over a policy snapshot.
	sys   *core.System
	kinds exec.AttrKinds

	// mu guards the authorization state: Query admits plans under RLock,
	// Grant/Revoke mutate the policy and flush the cache under Lock.
	mu     sync.RWMutex
	policy *authz.Policy
	cache  *planCache

	// met owns the metrics registry; every engine counter lives there (see
	// metrics.go) so Stats, /metrics, and engbench read one source of truth.
	met *engineMetrics

	// adm is the admission gate (nil when MaxConcurrent is unset).
	adm *admission
}

// New validates the configuration and starts an engine.
func New(cfg Config) (*Engine, error) {
	switch {
	case cfg.Catalog == nil:
		return nil, fmt.Errorf("engine: config needs a catalog")
	case cfg.Policy == nil:
		return nil, fmt.Errorf("engine: config needs a policy")
	case cfg.Model == nil:
		return nil, fmt.Errorf("engine: config needs a cost model")
	case cfg.User == "":
		return nil, fmt.Errorf("engine: config needs the querying user")
	case len(cfg.Subjects) == 0:
		return nil, fmt.Errorf("engine: config needs candidate subjects")
	}
	switch cfg.PlannerMode {
	case "", PlannerCost, PlannerGreedy, PlannerAdaptive:
	default:
		return nil, fmt.Errorf("engine: unknown planner mode %q (want %s, %s, or %s)",
			cfg.PlannerMode, PlannerCost, PlannerGreedy, PlannerAdaptive)
	}
	if cfg.PaillierBits == 0 {
		cfg.PaillierBits = crypto.DefaultPaillierBits
	}
	size := cfg.CacheSize
	if size == 0 {
		size = defaultCacheSize
	}
	sys := core.NewSystem(cfg.Policy, cfg.Subjects...)
	sys.Types = cfg.Catalog.TypesOf()
	e := &Engine{
		cfg:     cfg,
		planner: planner.New(cfg.Catalog),
		sys:     sys,
		kinds:   exec.KindsFromCatalog(cfg.Catalog),
		policy:  cfg.Policy,
		cache:   newPlanCache(size),
	}
	e.adm = newAdmission(cfg.MaxConcurrent, cfg.MaxQueue, cfg.QueueWait)
	e.met = newEngineMetrics(e)
	return e, nil
}

// preparedQuery is one cache entry: everything needed to execute a query
// except per-run state, computed under a single authorization version.
type preparedQuery struct {
	version   uint64
	plan      *planner.Plan
	result    *assignment.Result
	network   *distsim.Network // subjects registered, keys distributed
	keys      *crypto.KeyStore // full rings, for user-side finalization
	consts    exec.ConstCache
	executors []authz.Subject // distinct assignees, sorted

	// observed holds the per-node output cardinalities measured by the most
	// recent traced run of this plan (Explain or a trace-enabled query),
	// stored alongside the cached plan as the feedback hook for
	// cardinality-informed re-optimization: a later planning pass can compare
	// each node's algebra.Stats estimate against what execution actually saw.
	observed atomic.Pointer[map[algebra.Node]int64]

	// replanGen counts how many times this cache slot has been
	// re-optimized with observed cardinalities; it is carried forward on
	// every swap and capped (maxReplanGen) so oscillating estimates can
	// never ping-pong the cache. replanning serializes re-plans of one
	// entry: concurrent hits on a diverged plan elect a single re-planner
	// and everyone else keeps executing the current plan.
	replanGen  int
	replanning atomic.Bool

	// paillierPKs are the distinct Paillier public keys the plan encrypts
	// under, collected at preparation. A cache hit means this exact plan is
	// about to encrypt again, so it kicks a background refill of each key's
	// randomizer pool: the expensive message-independent exponentiations run
	// off the encryption path while the query executes.
	paillierPKs []*crypto.Paillier
	refilling   atomic.Bool
	refillDone  atomic.Pointer[chan struct{}]
}

// refillRandomizerCount is how many pooled randomizers one cache hit tops
// each of the plan's Paillier keys up by (the pool itself caps the total).
const refillRandomizerCount = 256

// refillRandomizers starts at most one background randomizer refill for the
// plan's Paillier keys; a refill already in flight is left alone. The
// channel stored in refillDone closes when the fill completes (tests and
// shutdown hooks can wait on it; queries never do).
func (pq *preparedQuery) refillRandomizers() {
	if len(pq.paillierPKs) == 0 || !pq.refilling.CompareAndSwap(false, true) {
		return
	}
	done := make(chan struct{})
	pq.refillDone.Store(&done)
	go func() {
		defer close(done)
		defer pq.refilling.Store(false)
		for _, pk := range pq.paillierPKs {
			_ = pk.PrecomputeRandomizers(refillRandomizerCount)
		}
	}()
}

// paillierKeysOf collects the distinct Paillier public keys the extended
// plan's encryption nodes use, resolved against the full key store.
func paillierKeysOf(root algebra.Node, keys *crypto.KeyStore) []*crypto.Paillier {
	var pks []*crypto.Paillier
	seen := make(map[*crypto.Paillier]struct{})
	var walk func(n algebra.Node)
	walk = func(n algebra.Node) {
		if enc, ok := n.(*algebra.Encrypt); ok {
			for _, a := range enc.Attrs {
				if enc.Schemes[a] != algebra.SchemePaillier {
					continue
				}
				ring, err := keys.Get(enc.KeyIDs[a])
				if err != nil || ring.PK == nil {
					continue
				}
				if _, dup := seen[ring.PK]; dup {
					continue
				}
				seen[ring.PK] = struct{}{}
				pks = append(pks, ring.PK)
			}
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(root)
	return pks
}

// recordObserved stores the actual output cardinality of every extended-plan
// node that carries a span in tr.
func (pq *preparedQuery) recordObserved(tr *obs.Trace) {
	m := make(map[algebra.Node]int64)
	var walk func(n algebra.Node)
	walk = func(n algebra.Node) {
		if sp := tr.ByRef(n); sp != nil {
			m[n] = sp.Rows()
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(pq.result.Extended.Root)
	pq.observed.Store(&m)
}

// observedRows returns the cardinalities of the last traced run, or nil if
// the plan has never run traced.
func (pq *preparedQuery) observedRows() map[algebra.Node]int64 {
	if p := pq.observed.Load(); p != nil {
		return *p
	}
	return nil
}

// Response is the outcome of one query.
type Response struct {
	// Headers and Table are the user-facing result after decryption,
	// ordering, projection, and limit (Table is nil for QueryStream).
	Headers []string
	Table   *exec.Table
	// CacheHit reports whether the authorized plan came from the cache.
	CacheHit bool
	// AuthzVersion is the authorization-state version the served plan was
	// admitted (and authorized) under.
	AuthzVersion uint64
	// Executors are the distinct subjects assigned operations of the
	// extended plan, sorted.
	Executors []authz.Subject
	// Cost is the exact cost breakdown of the chosen assignment.
	Cost cost.Breakdown
	// Transfers is this run's inter-subject shipment ledger.
	Transfers []distsim.Transfer
	// PlanTime covers admission (fingerprint, cache lookup, and on a miss
	// the full authorize/extend/assign/key pipeline); ExecTime covers
	// distributed execution and user-side finalization.
	PlanTime, ExecTime time.Duration
	// TimeToFirstRow is the time from execution start until the first
	// finished rows were handed on (zero for queries that produced no
	// rows).
	TimeToFirstRow time.Duration
	// Rows counts the result rows delivered (Table.Len() for Query, rows
	// streamed to the callback for QueryStream).
	Rows int
}

// BytesShipped totals the bytes moved between subjects during this run.
func (r *Response) BytesShipped() int64 {
	var total int64
	for _, t := range r.Transfers {
		total += t.Bytes
	}
	return total
}

// maxOptimisticPrepares bounds how often a cold preparation is retried
// because the authorization state changed mid-flight before Query falls
// back to preparing under the read lock (blocking mutations, guaranteeing
// progress under grant/revoke churn).
const maxOptimisticPrepares = 2

// Query plans, authorizes, and executes one SQL query, reusing a cached
// authorized plan when one exists for the current authorization state.
func (e *Engine) Query(query string) (*Response, error) {
	return e.QueryCtx(nil, query)
}

// QueryCtx is Query under a caller context: cancellation or deadline expiry
// aborts the run within one batch of work (spill files deleted, memory
// released, fragment goroutines joined) and the error carries the context's
// cause. The engine's Config.QueryTimeout applies as the default deadline
// when ctx has none; admission control (Config.MaxConcurrent) may reject
// the query with ErrOverloaded or ErrQueueTimeout before any work is done.
func (e *Engine) QueryCtx(ctx context.Context, query string) (*Response, error) {
	resp, _, err := e.query(ctx, query, nil, nil)
	return resp, err
}

// query is the one execution path behind Query, QueryStream, and Explain:
// it admits the authorized plan, runs it on the streaming runtime, and
// completes every root batch user-side in the sink (see finisher). yield
// receives the finished rows; a nil yield collects them into
// Response.Table. When tr is non-nil the run executes traced (every
// compiled operator wrapped in a span, every cross-subject edge recorded)
// and the observed cardinalities are stored on the prepared plan, which is
// returned for Explain.
//
// The execute and finalize phase histograms are disjoint: finalize is the
// time spent decrypting, ordering, and projecting (in the sink and after
// the run), execute the rest of the run. The caller's yield is in neither.
func (e *Engine) query(ctx context.Context, query string, tr *obs.Trace, yield func(headers []string, rows [][]exec.Value) error) (_ *Response, _ *preparedQuery, err error) {
	e.met.queries.Inc()
	ctx, cancel := e.runContext(ctx)
	if cancel != nil {
		defer cancel()
	}
	if err := e.acquireSlot(ctx); err != nil {
		e.countFailure(err)
		return nil, nil, err
	}
	defer e.releaseSlot()
	// Last-resort panic isolation: execution-layer panics are caught at the
	// morsel and fragment boundaries below, so this boundary covers the
	// engine's own phases (parse, admission, finalization). The process
	// serves the next query either way.
	defer func() {
		if r := recover(); r != nil {
			err = exec.NewPanicError("engine query", r)
			e.countFailure(err)
		}
	}()
	start := time.Now()
	pq, hit, err := e.admitSQL(query)
	if err != nil {
		e.met.errors.Inc()
		return nil, nil, err
	}
	if tr == nil && e.adaptive() && pq.observedRows() == nil {
		// Adaptive mode self-seeds its feedback: the first run of every
		// prepared plan executes traced so the observed cardinalities
		// exist by the first cache hit, without requiring callers to use
		// Explain or ?trace=1.
		tr = obs.NewTrace()
	}
	if hit {
		e.met.hits.Inc()
		pq.refillRandomizers()
	} else {
		e.met.misses.Inc()
	}
	resp := &Response{
		CacheHit:     hit,
		AuthzVersion: pq.version,
		Executors:    pq.executors,
		Cost:         pq.result.Cost,
		PlanTime:     time.Since(start),
	}
	for _, oc := range pq.plan.Output {
		resp.Headers = append(resp.Headers, oc.Name)
	}
	var collected [][]exec.Value
	collect := yield == nil
	if collect {
		yield = func(_ []string, rows [][]exec.Value) error {
			collected = append(collected, rows...)
			return nil
		}
	}

	execStart := time.Now()
	var sinkTime, yieldTime time.Duration
	fin := newFinisher(pq, e.cfg.CryptoWorkers, func(rows [][]exec.Value) error {
		if len(rows) == 0 {
			return nil
		}
		if resp.TimeToFirstRow == 0 {
			resp.TimeToFirstRow = time.Since(execStart)
		}
		resp.Rows += len(rows)
		t0 := time.Now()
		err := yield(resp.Headers, rows)
		yieldTime += time.Since(t0)
		return err
	})
	run := pq.network.Clone()
	run.Trace = tr
	schema, transfers, err := run.ExecuteStreamCtx(ctx, pq.result.Extended, pq.consts, func(rows [][]exec.Value) error {
		t0 := time.Now()
		err := fin.add(rows)
		sinkTime += time.Since(t0)
		return err
	})
	if err != nil {
		e.countFailure(err)
		return nil, nil, err
	}
	runTime := time.Since(execStart)
	if tr != nil {
		pq.recordObserved(tr)
	}
	postStart := time.Now()
	if err := fin.flush(e.cfg.BatchSize); err != nil {
		e.met.errors.Inc()
		return nil, nil, err
	}
	e.met.phaseExecute.Observe((runTime - sinkTime).Seconds())
	e.met.phaseFinalize.Observe((sinkTime + time.Since(postStart) - yieldTime).Seconds())

	if collect {
		resp.Table = exec.NewTable(schema).Project(fin.indices)
		resp.Table.Rows = collected
	}
	resp.Transfers = transfers
	resp.ExecTime = time.Since(execStart)
	e.met.transfers.Add(uint64(len(transfers)))
	e.met.bytesShipped.Add(uint64(resp.BytesShipped()))
	return resp, pq, nil
}

// admitSQL parses a query and admits its authorized plan.
func (e *Engine) admitSQL(query string) (*preparedQuery, bool, error) {
	start := time.Now()
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, false, err
	}
	e.met.observe(e.met.phaseParse, start)
	return e.admit(stmt, fingerprint(stmt))
}

// admit returns an authorized plan consistent with the current
// authorization state: a cache hit, or a freshly prepared plan. Cold
// preparation — optimization, extension, and Paillier key generation — is
// expensive, so it runs against a policy snapshot without holding the
// authorization lock; the result is admitted only if the version is
// unchanged. After repeated churn the final attempt prepares under the
// read lock: mutations (and, behind them, other admissions) wait for that
// one preparation, a deliberate trade — a bounded serving stall, reachable
// only when several policy mutations each overlap a full preparation of
// the same query — for guaranteed progress where unbounded optimistic
// retry could starve cold queries forever. Either way a served plan is
// always authorized under exactly the version it reports.
func (e *Engine) admit(stmt *sql.SelectStmt, fp string) (*preparedQuery, bool, error) {
	for attempt := 0; ; attempt++ {
		e.mu.RLock()
		version := e.policy.Version()
		if pq := e.cache.get(fp, version); pq != nil {
			e.mu.RUnlock()
			return e.maybeReplan(stmt, fp, pq), true, nil
		}
		if attempt >= maxOptimisticPrepares {
			pq, err := e.prepare(stmt, version, e.policy, e.planOpts(nil))
			if err == nil {
				e.cache.put(fp, pq)
			}
			e.mu.RUnlock()
			return pq, false, err
		}
		snap := e.policy.Clone()
		e.mu.RUnlock()

		pq, err := e.prepare(stmt, version, snap, e.planOpts(nil))

		e.mu.RLock()
		current := e.policy.Version()
		if current == version {
			if err == nil {
				e.cache.put(fp, pq)
			}
			e.mu.RUnlock()
			return pq, false, err
		}
		e.mu.RUnlock()
		// The authorization state changed while preparing: the plan (or
		// error) reflects a stale policy. Discard and retry.
	}
}

// prepare runs the full paper pipeline for one parsed statement against pol
// (a consistent snapshot of — or, under the read lock, the live —
// authorization state at the given version).
func (e *Engine) prepare(stmt *sql.SelectStmt, version uint64, pol authz.Viewer, opts planner.PlanOptions) (*preparedQuery, error) {
	sys := core.NewSystem(pol, e.cfg.Subjects...)
	sys.Caps = e.sys.Caps
	sys.Types = e.sys.Types
	planStart := time.Now()
	plan, err := e.planner.PlanWith(stmt, opts)
	if err != nil {
		return nil, err
	}
	e.met.observe(e.met.phasePlan, planStart)
	authzStart := time.Now()
	if err := sys.CheckUserAccess(e.cfg.User, plan.Root); err != nil {
		return nil, err
	}
	e.met.observe(e.met.phaseAuthz, authzStart)
	assignStart := time.Now()
	an := sys.Analyze(plan.Root, nil)
	res, err := assignment.Optimize(sys, an, e.cfg.Model, assignment.Options{})
	if err != nil {
		return nil, err
	}
	e.met.observe(e.met.phaseAssign, assignStart)

	nw := distsim.NewNetwork()
	nw.Delay = e.cfg.LinkDelay
	nw.BatchSize = e.cfg.BatchSize
	nw.CryptoWorkers = e.cfg.CryptoWorkers
	nw.Workers = e.cfg.Workers
	nw.MorselRows = e.cfg.MorselRows
	nw.MemBudget = e.cfg.MemBudget
	nw.SpillDir = e.cfg.SpillDir
	nw.PartialShuffle = e.cfg.PartialShuffle
	nw.Faults = e.cfg.Faults
	for name, fn := range e.cfg.UDFs {
		nw.UDFs[name] = fn
	}
	for _, ring := range e.cfg.StorageRings {
		nw.AddStorageRing(ring)
	}
	for s, tables := range e.cfg.Tables {
		nw.AddSubject(s, tables)
	}
	keysStart := time.Now()
	full, err := nw.DistributeKeys(res.Extended, e.cfg.PaillierBits)
	if err != nil {
		return nil, err
	}
	consts, err := exec.PrepareConstants(res.Extended.Root, full, e.kinds)
	if err != nil {
		return nil, err
	}
	e.met.observe(e.met.phaseKeys, keysStart)

	seen := make(map[authz.Subject]struct{})
	for _, s := range res.Extended.Assign {
		seen[s] = struct{}{}
	}
	executors := make([]authz.Subject, 0, len(seen))
	for s := range seen {
		executors = append(executors, s)
	}
	sort.Slice(executors, func(i, j int) bool { return executors[i] < executors[j] })

	return &preparedQuery{
		version:     version,
		plan:        plan,
		result:      res,
		network:     nw,
		keys:        full,
		consts:      consts,
		executors:   executors,
		paillierPKs: paillierKeysOf(res.Extended.Root, full),
	}, nil
}

// Grant adds the authorization [plain, enc]→subject on rel, invalidating
// every cached plan. It returns the new authorization-state version.
func (e *Engine) Grant(rel string, subject authz.Subject, plain, enc []string) (uint64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.policy.Grant(rel, subject, plain, enc); err != nil {
		return e.policy.Version(), err
	}
	e.cache.flush()
	e.met.invalidations.Inc()
	return e.policy.Version(), nil
}

// Revoke removes subject's authorization on rel, invalidating every cached
// plan when one was present. It returns the new authorization-state version
// and whether an authorization was removed.
func (e *Engine) Revoke(rel string, subject authz.Subject) (uint64, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	revoked := e.policy.Revoke(rel, subject)
	if revoked {
		e.cache.flush()
		e.met.invalidations.Inc()
	}
	return e.policy.Version(), revoked
}

// AuthzVersion returns the current authorization-state version.
func (e *Engine) AuthzVersion() uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.policy.Version()
}

// FlushCache drops every cached plan (authorization state is unchanged).
func (e *Engine) FlushCache() { e.cache.flush() }

// Stats is a snapshot of the engine counters.
type Stats struct {
	Queries       uint64 `json:"queries"`
	CacheHits     uint64 `json:"cache_hits"`
	CacheMisses   uint64 `json:"cache_misses"`
	Errors        uint64 `json:"errors"`
	Invalidations uint64 `json:"invalidations"`
	Replans       uint64 `json:"replans"`
	Transfers     uint64 `json:"transfers"`
	BytesShipped  uint64 `json:"bytes_shipped"`
	CachedPlans   int    `json:"cached_plans"`
	AuthzVersion  uint64 `json:"authz_version"`
}

// Stats returns a snapshot of the engine counters. The fields (and their
// JSON keys) are stable; since the registry became the source of truth this
// is a read-through view over the same counters /metrics exposes.
func (e *Engine) Stats() Stats {
	return Stats{
		Queries:       e.met.queries.Value(),
		CacheHits:     e.met.hits.Value(),
		CacheMisses:   e.met.misses.Value(),
		Errors:        e.met.errors.Value(),
		Invalidations: e.met.invalidations.Value(),
		Replans:       e.met.replans.Value(),
		Transfers:     e.met.transfers.Value(),
		BytesShipped:  e.met.bytesShipped.Value(),
		CachedPlans:   e.cache.len(),
		AuthzVersion:  e.AuthzVersion(),
	}
}
