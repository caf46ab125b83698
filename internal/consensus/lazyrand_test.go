package consensus

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// edgeSeeds are the int64 seeds where math/rand's seed reduction
// branches: zero, the modulus 2³¹−1 and its multiples (reduced to 0,
// then replaced), negative values and the int64 extremes.
var edgeSeeds = []int64{
	0, 1, -1, 2, -2, 89482311, -89482311,
	int32max, -int32max, int32max - 1, int32max + 1, -int32max - 1,
	2 * int32max, -2 * int32max, 1 << 31, -1 << 31, 1 << 32,
	math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1,
	math.MaxInt64 / int32max * int32max,
}

// seedBytes encodes s the way SelectIndices reads it, with junk in the
// ignored tail.
func seedBytes(s int64) [32]byte {
	var seed [32]byte
	binary.BigEndian.PutUint64(seed[:8], uint64(s))
	for i := 8; i < len(seed); i++ {
		seed[i] = byte(s>>uint(i%8)) ^ byte(i)
	}
	return seed
}

// referenceSteps runs the whole Fisher-Yates that SelectIndices
// truncates, on math/rand itself, and returns the sorted selection after
// each number of swaps k = 0…n.
func referenceSteps(s int64, n int) [][]int {
	rng := rand.New(rand.NewSource(s))
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	steps := [][]int{{}}
	for i := 0; i < n; i++ {
		j := i + rng.Intn(n-i)
		perm[i], perm[j] = perm[j], perm[i]
		sel := slices.Clone(perm[:i+1])
		sort.Ints(sel)
		steps = append(steps, sel)
	}
	return steps
}

func checkSelect(t *testing.T, s int64, n int) {
	t.Helper()
	for k, want := range referenceSteps(s, n) {
		got, err := SelectIndices(seedBytes(s), n, k)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: SelectIndices(n=%d, k=%d) = %v, math/rand gives %v", s, n, k, got, want)
		}
	}
}

// TestSelectIndicesMatchesMathRand pins SelectIndices to its math/rand
// definition: every n ≤ 40 and k ≤ n on the edge seeds, and on 10⁵
// pseudo-random seeds every k ≤ n for n cycling through 0…40.
func TestSelectIndicesMatchesMathRand(t *testing.T) {
	for _, s := range edgeSeeds {
		for n := 0; n <= 40; n++ {
			checkSelect(t, s, n)
		}
	}
	seeds := 100_000
	if testing.Short() {
		seeds = 5_000
	}
	gen := rand.New(rand.NewSource(20111))
	for i := 0; i < seeds; i++ {
		checkSelect(t, int64(gen.Uint64()), i%41)
	}
}

// TestSelectIndicesPastWindow covers selections that draw more than
// lazySource's rngTap seeding-free outputs and finish on math/rand.
func TestSelectIndicesPastWindow(t *testing.T) {
	for _, s := range edgeSeeds[:8] {
		want := referenceSteps(s, 400)
		for _, k := range []int{rngTap - 1, rngTap, rngTap + 1, 300, 399} {
			got, err := SelectIndices(seedBytes(s), 400, k)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want[k]) {
				t.Fatalf("seed %d: SelectIndices(n=400, k=%d) differs from math/rand", s, k)
			}
		}
	}
}

// lazyModuli exercises every Intn path: small n as SelectIndices uses
// them, powers of two (masked), moduli near 2³¹ (frequent rejections)
// and beyond it (Int63n).
var lazyModuli = []int{1, 2, 3, 5, 7, 8, 12, 13, 40, 1 << 20, 1<<30 + 1, int32max, 1 << 40, 3<<40 + 7}

// TestLazySourceMatchesMathRand draws 2·rngTap values from lazySource
// and from math/rand on the edge seeds and 10⁵ pseudo-random seeds; the
// draws cross the seeding-free window into the fast-forwarded fallback.
func TestLazySourceMatchesMathRand(t *testing.T) {
	check := func(s int64) {
		src := newLazySource(s)
		ref := rand.New(rand.NewSource(s))
		for d := 0; d < 2*rngTap; d++ {
			m := lazyModuli[(d+int(s&7))%len(lazyModuli)]
			if got, want := src.intn(m), ref.Intn(m); got != want {
				t.Fatalf("seed %d draw %d: intn(%d) = %d, math/rand gives %d", s, d, m, got, want)
			}
		}
	}
	for _, s := range edgeSeeds {
		check(s)
	}
	seeds := 100_000
	if testing.Short() {
		seeds = 5_000
	}
	gen := rand.New(rand.NewSource(2011))
	for i := 0; i < seeds; i++ {
		check(int64(gen.Uint64()))
	}
}

// TestSelectIndicesAllocs: a selection allocates its result and, within
// the window, nothing else.
func TestSelectIndicesAllocs(t *testing.T) {
	seed := seedBytes(7)
	for _, c := range []struct{ n, k int }{{7, 0}, {7, 1}, {13, 1}, {7, 7}, {7, 3}} {
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := SelectIndices(seed, c.n, c.k); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 1 {
			t.Errorf("SelectIndices(n=%d, k=%d): %v allocations, want ≤ 1", c.n, c.k, allocs)
		}
	}
}

func BenchmarkSelectIndices(b *testing.B) {
	for _, c := range []struct {
		name string
		n, k int
	}{{"k=0", 7, 0}, {"n=7,k=1", 7, 1}, {"k=n", 7, 7}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			seed := seedBytes(1)
			for b.Loop() {
				seed[7]++
				if _, err := SelectIndices(seed, c.n, c.k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
