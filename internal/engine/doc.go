// Package engine is the long-lived, concurrency-safe query service over the
// paper's pipeline: one Engine wires sql → planner → profile → authorization
// analysis → minimal core extension → cost-optimized assignment → key
// distribution → distributed execution behind a single Query call, and keeps
// serving while data authorities grant and revoke authorizations.
//
// Two mechanisms carry the service beyond the seed's one-shot pipeline:
//
//   - An authorized-plan cache keyed by query fingerprint and the policy's
//     authorization-state version. A repeated query skips planning, analysis,
//     extension, assignment, key generation, and constant dispatch entirely;
//     any Grant or Revoke bumps the version and flushes the cache, so a plan
//     authorized under a stale policy is never served. Plan admission happens
//     under a read lock on the authorization state, so every admitted plan is
//     consistent with the version it reports.
//
//   - The distributed runtime (distsim.ExecuteStreamCtx): plan fragments
//     execute as per-subject workers exchanging columnar batches over
//     channels, so independent subtrees of the assigned plan run
//     concurrently, and concurrent queries never share mutable executor
//     state (each run clones the prepared network).
//
// Query, QueryStream, and Explain share one execution path: the root
// fragment's batches are decrypted, ordered, projected, and limited
// user-side as they arrive. QueryStream hands the finished rows to a
// callback (the row-oriented API boundary over the columnar interior);
// Query collects them into a table. See docs/ARCHITECTURE.md at the
// repository root for the full three-layer picture.
package engine
