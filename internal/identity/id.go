// Package identity implements the identifier and security scheme of
// Section III of the DSN 2011 targeted-attack paper: a registration
// authority (CA) issues signed certificates carrying the peer's public
// key and creation time t0; the initial identifier id0 is the hash of
// certificate fields; and the *current* identifier is the hash of id0
// with the current incarnation number k = ⌈(t−t0)/L⌉, which expires every
// L time units (Property 1, induced churn). A grace window W tolerates
// loosely synchronized clocks by accepting two adjacent incarnations.
//
// Substitutions with respect to the paper (see DESIGN.md): X.509 and MD5
// are replaced by a minimal deterministic certificate encoding signed
// with ed25519 and by sha-256 truncated to m bits; the model only relies
// on unforgeability and uniform unpredictable identifiers, which these
// provide.
package identity

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/bits"
)

// MaxIDBits is the maximum identifier width (bits of a sha-256 digest).
const MaxIDBits = 256

// ID is an m-bit identifier drawn from the 2^m identifier space.
type ID struct {
	b [32]byte
	m int
}

// NewID builds an ID from a digest, truncated to m bits.
func NewID(digest [32]byte, m int) (ID, error) {
	if m < 1 || m > MaxIDBits {
		return ID{}, fmt.Errorf("identity: id width %d outside [1,%d]", m, MaxIDBits)
	}
	id := ID{b: digest, m: m}
	id.truncate()
	return id, nil
}

// truncate zeroes the bits beyond m so Equal and String depend only on
// the truncated value.
func (id *ID) truncate() {
	if r := id.m % 8; r != 0 {
		id.b[id.m/8] &= 0xFF << (8 - r)
	}
	clear(id.b[(id.m+7)/8:])
}

// Prefix64 returns the identifier's leading 64 bits, most significant
// first; bits beyond the width read as zero.
func (id ID) Prefix64() uint64 { return binary.BigEndian.Uint64(id.b[:8]) }

// WithPrefix returns the identifier with its leading n bits (0 ≤ n ≤ 64)
// replaced by the leading n bits of prefix, keeping the width.
func (id ID) WithPrefix(prefix uint64, n int) ID {
	keep := ^uint64(0) >> n
	binary.BigEndian.PutUint64(id.b[:8], id.Prefix64()&keep|prefix&^keep)
	id.truncate()
	return id
}

// Bits returns the identifier width m.
func (id ID) Bits() int { return id.m }

// Bit returns bit i (0 = most significant), or an error out of range.
func (id ID) Bit(i int) (int, error) {
	if i < 0 || i >= id.m {
		return 0, fmt.Errorf("identity: bit %d outside [0,%d)", i, id.m)
	}
	return int(id.b[i/8]>>(7-uint(i%8))) & 1, nil
}

// Equal reports value equality (same width, same bits).
func (id ID) Equal(other ID) bool {
	return id.m == other.m && id.b == other.b
}

// String renders the identifier as hex of its first ⌈m/8⌉ bytes.
func (id ID) String() string {
	n := (id.m + 7) / 8
	return hex.EncodeToString(id.b[:n])
}

// CommonPrefixLen returns the number of leading bits shared with other
// (both truncated to the shorter width).
func (id ID) CommonPrefixLen(other ID) int {
	limit := min(id.m, other.m)
	n := 0
	for w := 0; n < limit; w += 8 {
		if x := binary.BigEndian.Uint64(id.b[w:]) ^ binary.BigEndian.Uint64(other.b[w:]); x != 0 {
			n += bits.LeadingZeros64(x)
			break
		}
		n += 64
	}
	return min(n, limit)
}

// Incarnation returns the paper's incarnation number k = ⌈(t−t0)/L⌉ at
// time t for a certificate created at t0 with lifetime L. The first
// incarnation is 1: at t = t0 exactly, k is defined as 1.
func Incarnation(t, t0, lifetime float64) (int64, error) {
	if lifetime <= 0 {
		return 0, fmt.Errorf("identity: non-positive lifetime %v", lifetime)
	}
	if t < t0 {
		return 0, fmt.Errorf("identity: time %v before creation %v", t, t0)
	}
	k := int64(math.Ceil((t - t0) / lifetime))
	if k < 1 {
		k = 1
	}
	return k, nil
}

// ExpiryTime returns the instant at which incarnation k expires:
// t0 + k·L (Property 1).
func ExpiryTime(t0, lifetime float64, k int64) float64 {
	return t0 + float64(k)*lifetime
}

// ValidIncarnations returns the incarnation numbers a verifier accepts at
// time t under a grace window W (Section III-D): k₁ = ⌈(t−W/2−t0)/L⌉ and
// k₂ = ⌈(t+W/2−t0)/L⌉. They are frequently equal and differ near an
// expiry boundary.
func ValidIncarnations(t, t0, lifetime, window float64) (int64, int64, error) {
	if window < 0 {
		return 0, 0, fmt.Errorf("identity: negative grace window %v", window)
	}
	early := t - window/2
	if early < t0 {
		early = t0
	}
	k1, err := Incarnation(early, t0, lifetime)
	if err != nil {
		return 0, 0, err
	}
	k2, err := Incarnation(t+window/2, t0, lifetime)
	if err != nil {
		return 0, 0, err
	}
	return k1, k2, nil
}

// DeriveID computes idq = H(id0 × k): the current identifier for
// incarnation k, truncated to id0's width.
func DeriveID(id0 ID, k int64) ID {
	var buf [40]byte
	copy(buf[:32], id0.b[:])
	binary.BigEndian.PutUint64(buf[32:], uint64(k))
	digest := sha256.Sum256(buf[:])
	out, err := NewID(digest, id0.m)
	if err != nil {
		// id0.m was validated at construction; this cannot fail.
		panic(fmt.Sprintf("identity: DeriveID: %v", err))
	}
	return out
}
