package consensus

import (
	"math/rand"
	"sync"
)

// math/rand's v1 source is an additive lagged-Fibonacci generator over a
// 607-word register, seeded by a Lehmer LCG x ← 48271·x mod (2³¹−1)
// whose words are XORed with a fixed 607-word table (rngCooked in
// math/rand). Seeding fills the whole register, which costs more than
// the handful of draws SelectIndices makes. Before the tap wraps onto a
// word the feed has rewritten, the k-th output (k ≤ rngTap) is
// vec[rngLen−rngTap−k] + vec[rngLen−k] of the freshly seeded register,
// and each word vec[i] depends only on three LCG states; lazySource
// computes just those.
const (
	rngLen   = 607
	rngTap   = 273
	int32max = 1<<31 - 1
	lcgMul   = 48271
)

// seedTables holds the constants lazySource computes with. They are
// built on first use, so a program that never draws pays nothing for
// them at start-up.
type seedTables struct {
	// powers[j] = 48271^j mod (2³¹−1): the LCG's j-th state is
	// seed·powers[j]. Seeding discards 20 states, then draws three per
	// word, so word rngLen−1 reads state 20+3·rngLen.
	powers [21 + 3*rngLen]uint64
	// cooked is math/rand's seeding table, recovered by recoverCooked.
	cooked [rngLen]uint64
}

var loadSeedTables = sync.OnceValue(func() *seedTables {
	t := new(seedTables)
	t.powers[0] = 1
	for j := 1; j < len(t.powers); j++ {
		t.powers[j] = t.powers[j-1] * lcgMul % int32max
	}
	t.cooked = t.recoverCooked()
	return t
})

// lcgWord is register word i of a freshly seeded source before the
// cooked XOR; seed is already reduced to [1, 2³¹−1).
func (t *seedTables) lcgWord(seed uint64, i int) uint64 {
	p := t.powers[21+3*i:]
	return seed*p[0]%int32max<<40 ^ seed*p[1]%int32max<<20 ^ seed*p[2]%int32max
}

// recoverCooked inverts math/rand's own first rngLen outputs for seed 1
// into the register they were drawn from, then strips the seed-1 LCG
// words off it. Output k (1-based) adds feed word rngLen−rngTap−k to tap
// word rngLen−k, where a tap word the feed has already rewritten holds
// output k−rngTap.
func (t *seedTables) recoverCooked() [rngLen]uint64 {
	src := rand.NewSource(1).(rand.Source64)
	var out [rngLen + 1]uint64
	for k := 1; k <= rngLen; k++ {
		out[k] = src.Uint64()
	}
	const feed0 = rngLen - rngTap
	var vec [rngLen]uint64
	// Outputs feed0+1…rngLen: the feed has wrapped to words feed0…rngLen−1
	// and the tap reads rewritten words.
	for k := feed0 + 1; k <= rngLen; k++ {
		vec[rngLen+feed0-k] = out[k] - out[k-rngTap]
	}
	// Outputs rngTap+1…feed0: feed words 0…feed0−rngTap−1, rewritten taps.
	for k := rngTap + 1; k <= feed0; k++ {
		vec[feed0-k] = out[k] - out[k-rngTap]
	}
	// Outputs 1…rngTap: both words fresh, the tap word known from above.
	for k := 1; k <= rngTap; k++ {
		vec[feed0-k] = out[k] - vec[rngLen-k]
	}
	var cooked [rngLen]uint64
	for i := range cooked {
		cooked[i] = vec[i] ^ t.lcgWord(1, i)
	}
	return cooked
}

// lazySource reproduces rand.New(rand.NewSource(seed)) draw by draw. Its
// first rngTap draws skip seeding; past them it replays on math/rand,
// fast-forwarded to the same point of the stream.
type lazySource struct {
	seed    int64
	reduced uint64 // math/rand's reduced seed, in [1, 2³¹−1)
	drawn   int
	tables  *seedTables
	replay  *rand.Rand
}

func newLazySource(seed int64) lazySource {
	r := seed % int32max
	if r < 0 {
		r += int32max
	}
	if r == 0 {
		r = 89482311
	}
	return lazySource{seed: seed, reduced: uint64(r), tables: loadSeedTables()}
}

// fallback returns the math/rand generator positioned after s's draws.
func (s *lazySource) fallback() *rand.Rand {
	if s.replay == nil {
		s.replay = rand.New(rand.NewSource(s.seed))
		for i := 0; i < s.drawn; i++ {
			s.replay.Int63()
		}
	}
	return s.replay
}

// int31 is rand.Rand.Int31.
func (s *lazySource) int31() int32 {
	if s.drawn == rngTap || s.replay != nil {
		return s.fallback().Int31()
	}
	s.drawn++
	x := s.word(rngLen-rngTap-s.drawn) + s.word(rngLen-s.drawn)
	return int32(x << 1 >> 33) // bits 32…62: Int63() >> 32
}

// word is register word i of the freshly seeded source.
func (s *lazySource) word(i int) uint64 { return s.tables.lcgWord(s.reduced, i) ^ s.tables.cooked[i] }

// intn is rand.Rand.Intn, rejection loop included.
func (s *lazySource) intn(n int) int {
	if n > int32max {
		return int(s.fallback().Int63n(int64(n)))
	}
	m := int32(n)
	if m&(m-1) == 0 {
		return int(s.int31() & (m - 1))
	}
	limit := int32(int32max - (1<<31)%uint32(m))
	v := s.int31()
	for v > limit {
		v = s.int31()
	}
	return int(v % m)
}
