package crypto

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/big"
)

// wireRing is the serialized form of a key ring. Paillier private material
// travels only when the ring is full (symmetric master present): a
// public-only ring serializes only the public parameters.
type wireRing struct {
	ID     string
	Master []byte
	N      *big.Int
	Lambda *big.Int
	Mu     *big.Int
	P      *big.Int // prime factor of N enabling CRT decryption; optional
	// (gob tolerates its absence, so blobs from older senders still decode —
	// their keys just decrypt on the textbook path).
}

// Marshal serializes the ring for inclusion in a dispatch message
// (Figure 8: keys travel inside the signed, sealed envelope).
func (k *KeyRing) Marshal() ([]byte, error) {
	w := wireRing{ID: k.ID, Master: k.Master}
	if k.PK != nil {
		w.N = k.PK.N
		if k.PK.HasPrivate() {
			w.Lambda = k.PK.lambda
			w.Mu = k.PK.mu
			w.P = k.PK.p
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&w); err != nil {
		return nil, fmt.Errorf("crypto: marshaling key ring %s: %w", k.ID, err)
	}
	return buf.Bytes(), nil
}

// maxWireModulusBits bounds the Paillier modulus accepted off the wire, so
// a hostile blob cannot make the receiver allocate or exponentiate against
// an absurd group.
const maxWireModulusBits = 1 << 14

// UnmarshalKeyRing reverses Marshal, validating the material before any of
// it can reach a cipher: a malformed blob yields an error, never a ring
// that panics or loops on use.
func UnmarshalKeyRing(data []byte) (*KeyRing, error) {
	var w wireRing
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return nil, fmt.Errorf("crypto: unmarshaling key ring: %w", err)
	}
	if w.ID == "" {
		return nil, fmt.Errorf("crypto: unmarshaling key ring: empty id")
	}
	if len(w.Master) != 0 && len(w.Master) != KeySize {
		return nil, fmt.Errorf("crypto: unmarshaling key ring %s: master key of %d bytes", w.ID, len(w.Master))
	}
	ring := &KeyRing{ID: w.ID, Master: w.Master}
	if w.N != nil {
		switch {
		case w.N.Sign() <= 0 || w.N.Cmp(big.NewInt(3)) <= 0:
			return nil, fmt.Errorf("crypto: unmarshaling key ring %s: degenerate Paillier modulus", w.ID)
		case w.N.BitLen() > maxWireModulusBits:
			return nil, fmt.Errorf("crypto: unmarshaling key ring %s: Paillier modulus of %d bits", w.ID, w.N.BitLen())
		case (w.Lambda == nil) != (w.Mu == nil):
			return nil, fmt.Errorf("crypto: unmarshaling key ring %s: partial Paillier private key", w.ID)
		}
		pk := newPaillierPublic(w.N)
		if w.Lambda != nil && w.Mu != nil {
			// Both private scalars are < n for well-formed keys; bounding
			// them keeps a hostile blob from smuggling a multi-megabit
			// exponent into every Decrypt.
			if w.Lambda.Sign() <= 0 || w.Mu.Sign() <= 0 ||
				w.Lambda.BitLen() > w.N.BitLen() || w.Mu.BitLen() > w.N.BitLen() {
				return nil, fmt.Errorf("crypto: unmarshaling key ring %s: malformed Paillier private part", w.ID)
			}
			pk.lambda, pk.mu = w.Lambda, w.Mu
			if w.P != nil {
				// The factor must actually split the modulus; anything else
				// is a corrupt or hostile blob. N's only nontrivial divisors
				// are its two primes, so divisibility plus bounds is a full
				// check.
				q := new(big.Int)
				if w.P.Cmp(big.NewInt(1)) <= 0 || w.P.Cmp(w.N) >= 0 ||
					new(big.Int).Mod(w.N, w.P).Sign() != 0 {
					return nil, fmt.Errorf("crypto: unmarshaling key ring %s: Paillier factor does not divide the modulus", w.ID)
				}
				q.Div(w.N, w.P)
				if !pk.initCRT(w.P, q) {
					return nil, fmt.Errorf("crypto: unmarshaling key ring %s: degenerate Paillier factor", w.ID)
				}
			}
		}
		ring.PK = pk
	}
	return ring, nil
}
