package engine

import (
	"context"

	"mpq/internal/exec"
)

// QueryStream plans, authorizes, and executes one SQL query like Query, but
// delivers the finalized result incrementally: yield is called with the
// output headers and successive batches of fully decrypted, projected
// output rows as the root fragment produces them, so a caller can start
// consuming the answer while providers are still computing. The
// returned Response carries the run's metadata — its Table is nil and
// TimeToFirstRow records when the first batch reached yield.
//
// Queries with an ORDER BY cannot stream past the sort: their rows are
// drained, sorted, and then replayed to yield in batches, so the first row
// arrives only after execution completes. A yield error aborts the run and
// is returned.
func (e *Engine) QueryStream(query string, yield func(headers []string, rows [][]exec.Value) error) (*Response, error) {
	return e.QueryStreamCtx(nil, query, yield)
}

// QueryStreamCtx is QueryStream under a caller context: cancellation or
// deadline expiry aborts the run within one batch of work, the engine's
// Config.QueryTimeout applies when ctx has no deadline, and admission
// control may reject the query before any work is done (see QueryCtx).
func (e *Engine) QueryStreamCtx(ctx context.Context, query string, yield func(headers []string, rows [][]exec.Value) error) (*Response, error) {
	resp, _, err := e.query(ctx, query, nil, yield)
	return resp, err
}

// finisher is the user side of one run, fed the root fragment's batches by
// the streaming runtime: it decrypts each batch with the query-plan keys
// and applies the plan's ordering, projection, and limit, handing finished
// rows to emit. Without ORDER BY rows stream straight through. ORDER BY +
// LIMIT — the top-k shape (TPC-H Q2/Q3/Q10) — keeps a bounded heap, so
// memory stays O(limit) and the final sort touches only the retained rows;
// an unbounded ORDER BY drains and sorts at flush.
type finisher struct {
	dec     *exec.Executor
	indices []int           // output column positions in the root schema
	limit   int             // < 0 = no LIMIT
	specs   []exec.SortSpec // nil = no ORDER BY
	topk    *exec.TopK      // ORDER BY + LIMIT
	drained [][]exec.Value  // unbounded ORDER BY
	emitted int
	emit    func(rows [][]exec.Value) error
}

func newFinisher(pq *preparedQuery, cryptoWorkers int, emit func(rows [][]exec.Value) error) *finisher {
	f := &finisher{
		dec:     exec.NewExecutor(),
		indices: make([]int, len(pq.plan.Output)),
		limit:   pq.plan.Limit,
		emit:    emit,
	}
	f.dec.Keys = pq.keys
	f.dec.CryptoWorkers = cryptoWorkers
	for i, oc := range pq.plan.Output {
		f.indices[i] = oc.Index
	}
	for _, o := range pq.plan.OrderBy {
		f.specs = append(f.specs, exec.SortSpec{Index: o.Index, Desc: o.Desc})
	}
	if f.specs != nil && f.limit >= 0 {
		f.topk = exec.NewTopK(f.specs, f.limit)
	}
	return f
}

// add finishes one batch of root rows.
func (f *finisher) add(rows [][]exec.Value) error {
	if f.specs == nil && f.limit >= 0 {
		// Rows past the limit are drained without decrypting them.
		rows = rows[:min(len(rows), max(f.limit-f.emitted, 0))]
		if len(rows) == 0 {
			return nil
		}
	}
	dec, err := f.dec.DecryptRows(rows)
	if err != nil {
		return err
	}
	switch {
	case f.topk != nil:
		for _, row := range dec {
			if err := f.topk.Add(row); err != nil {
				return err
			}
		}
		return nil
	case f.specs != nil:
		f.drained = append(f.drained, dec...)
		return nil
	}
	f.emitted += len(dec)
	return f.emit(f.project(dec))
}

// flush emits an ORDER BY query's sorted rows in batches of batchSize (0
// means exec.DefaultBatchSize) once the run has drained; streaming queries
// have nothing left to emit.
func (f *finisher) flush(batchSize int) error {
	if f.specs == nil {
		return nil
	}
	sorted := f.drained // limit < 0 here: bounded queries took the TopK path
	if f.topk != nil {
		var err error
		if sorted, err = f.topk.Rows(); err != nil {
			return err
		}
	} else if err := (&exec.Table{Rows: sorted}).SortBy(f.specs); err != nil {
		return err
	}
	if batchSize <= 0 {
		batchSize = exec.DefaultBatchSize
	}
	out := f.project(sorted)
	for pos := 0; pos < len(out); pos += batchSize {
		if err := f.emit(out[pos:min(pos+batchSize, len(out))]); err != nil {
			return err
		}
	}
	return nil
}

// project picks the output columns of every row.
func (f *finisher) project(rows [][]exec.Value) [][]exec.Value {
	out := make([][]exec.Value, len(rows))
	for i, row := range rows {
		pr := make([]exec.Value, len(f.indices))
		for j, ix := range f.indices {
			pr[j] = row[ix]
		}
		out[i] = pr
	}
	return out
}
