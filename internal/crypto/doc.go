// Package crypto implements the four encryption techniques of the paper's
// experimental setup (Section 7): randomized symmetric encryption (AES-CTR
// with a random nonce), deterministic symmetric encryption (AES-CTR with a
// synthetic nonce derived by HMAC, enabling equality over ciphertexts), a
// Paillier cryptosystem (additive homomorphism for sum/avg aggregation over
// ciphertexts), and an order-preserving encryption scheme (range conditions
// over ciphertexts). The package also derives per-cluster key material for
// the query-plan keys of Definition 6.1.
//
// Every scheme exposes batch entry points (EncryptBatch/DecryptBatch, plus
// packed-arena EncryptArena variants for the symmetric schemes and
// fixed-base randomizer precomputation for Paillier) that amortize cipher
// setup across a whole column of cells; the execution engine's columnar
// encrypt/decrypt operators call them with one batched call per column (or
// per scheme-and-key group). Deterministic and OPE batch outputs are
// bit-identical to the per-value calls; randomized and Paillier outputs
// decrypt to the same plaintexts.
//
// Paillier randomizers of keys that know their factorization come from two
// half-width fixed-base tables (mod p² and mod q²) multiplied by a
// word-level Montgomery kernel and recombined by CRT; Paillier decryption
// uses CRT too. Both are variable-time, like the math/big arithmetic they
// build on.
//
// See docs/ARCHITECTURE.md at the repository root for how the crypto batch
// path plugs into the columnar pipeline.
package crypto
