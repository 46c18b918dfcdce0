// Package distsim simulates the distributed execution of an extended,
// assigned query plan across subjects: each subject runs its operations on
// its own executor (holding only its tables and the keys distributed to it
// per Definition 6.1), sub-results travel over accounted network links, and
// providers operating on encrypted data receive Paillier public parts and
// pre-encrypted predicate constants — never decryption keys. The simulation
// verifies end to end that the authorization-driven extension computes the
// same answers as a trusted centralized execution.
//
// One runtime executes a prepared Network: ExecuteStreamCtx runs one
// worker goroutine per same-subject plan fragment, exchanging columnar
// exec.Batch values over bounded channels. Transfer latency overlaps
// upstream computation batch by batch, and the ledger accounts each edge's
// bytes per shipped batch (batchBytes walks the column vectors).
// ExecuteParallelCtx is the same run with the root's batches collected into
// one table, for callers that want the whole relation. The tests check the
// runtime against internal/oracle, which evaluates the same extended plan
// centrally.
//
// See docs/ARCHITECTURE.md at the repository root for how fragments,
// channel exchanges, and the transfer ledger fit into the full pipeline.
package distsim
