package identity

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// bitsOf renders the m leading bits of digest, one per entry, by the
// per-bit definition the word-level code replaces.
func bitsOf(digest [32]byte, m int) []int {
	out := make([]int, m)
	for i := range out {
		out[i] = int(digest[i/8]>>(7-uint(i%8))) & 1
	}
	return out
}

// fromBits packs bits most significant first.
func fromBits(bits []int) [32]byte {
	var d [32]byte
	for i, b := range bits {
		d[i/8] |= byte(b) << (7 - uint(i%8))
	}
	return d
}

// randomDigest returns a digest, sometimes sharing a random-length
// prefix with base so long common prefixes are exercised.
func randomDigest(rng *rand.Rand, base [32]byte) [32]byte {
	var d [32]byte
	rng.Read(d[:])
	if rng.Intn(2) == 0 {
		bits := bitsOf(d, MaxIDBits)
		copy(bits, bitsOf(base, rng.Intn(MaxIDBits+1)))
		d = fromBits(bits)
	}
	return d
}

// TestWordOpsMatchBitLoops checks NewID's byte masks, Prefix64,
// WithPrefix and CommonPrefixLen against per-bit definitions for every
// width 1…256 and prefix length 0…64.
func TestWordOpsMatchBitLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for m := 1; m <= MaxIDBits; m++ {
		for trial := 0; trial < 20; trial++ {
			var digest [32]byte
			rng.Read(digest[:])
			id, err := NewID(digest, m)
			if err != nil {
				t.Fatal(err)
			}
			if want := fromBits(bitsOf(digest, m)); id.b != want {
				t.Fatalf("NewID(m=%d) kept bits beyond the width: %x, want %x", m, id.b, want)
			}
			if want := fromBits(bitsOf(digest, min(m, 64))); id.Prefix64() != binary.BigEndian.Uint64(want[:8]) {
				t.Fatalf("Prefix64(m=%d) = %x", m, id.Prefix64())
			}

			n := trial * 64 / 19 // 0…64
			var pre [32]byte
			rng.Read(pre[:8])
			spliced := bitsOf(digest, m)
			copy(spliced, bitsOf(pre, min(n, m)))
			got := id.WithPrefix(binary.BigEndian.Uint64(pre[:8]), n)
			if want, _ := NewID(fromBits(spliced), m); !got.Equal(want) {
				t.Fatalf("WithPrefix(n=%d) on m=%d = %v, want %v", n, m, got, want)
			}

			om := 1 + rng.Intn(MaxIDBits)
			other, _ := NewID(randomDigest(rng, digest), om)
			want := 0
			for i := 0; i < min(m, om); i++ {
				a, _ := id.Bit(i)
				b, _ := other.Bit(i)
				if a != b {
					break
				}
				want++
			}
			if got := id.CommonPrefixLen(other); got != want {
				t.Fatalf("CommonPrefixLen(m=%d, %d) = %d, want %d", m, om, got, want)
			}
		}
	}
}

func BenchmarkNewID(b *testing.B) {
	for _, m := range []int{64, 61} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			var digest [32]byte
			for i := range digest {
				digest[i] = byte(0x9E ^ i)
			}
			for b.Loop() {
				digest[0]++
				if _, err := NewID(digest, m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
