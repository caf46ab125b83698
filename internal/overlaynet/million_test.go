package overlaynet

import (
	"strconv"
	"testing"
	"unsafe"

	"targetedattacks/internal/adversary"
	"targetedattacks/internal/core"
)

// TestFastIdentityRuns exercises the hash-derived identity path: no
// certificates are issued, invariants hold under churn, and two runs
// with the same seed are bit-identical.
func TestFastIdentityRuns(t *testing.T) {
	cfg := config(0.2, 0.9)
	cfg.FastIdentity = true
	run := func() (*Network, Snapshot) {
		n := newNetwork(t, cfg)
		if err := n.Run(3000); err != nil {
			t.Fatal(err)
		}
		return n, n.Snapshot()
	}
	n1, s1 := run()
	_, s2 := run()
	if s1 != s2 {
		t.Errorf("FastIdentity runs diverged: %+v vs %+v", s1, s2)
	}
	checkInvariants(t, n1)
	for _, cl := range n1.Clusters() {
		for _, p := range append(append([]*Peer(nil), cl.Core...), cl.Spare...) {
			if p.Identity != nil {
				t.Fatalf("%v carries a certificate in FastIdentity mode", p)
			}
		}
	}
}

// TestFastIdentityRealTime checks that hash-derived identifiers follow
// Property 1 in RealTime mode: incarnations advance through expiries
// exactly as certificate-backed ones do.
func TestFastIdentityRealTime(t *testing.T) {
	cfg := config(0.1, 0.8)
	cfg.FastIdentity = true
	cfg.Mode = RealTime
	cfg.StationaryPopulation = true
	n := newNetwork(t, cfg)
	if err := n.Run(4000); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, n)
	advanced := 0
	for _, cl := range n.Clusters() {
		for _, p := range append(append([]*Peer(nil), cl.Core...), cl.Spare...) {
			if p.Incarnation > 1 {
				advanced++
			}
		}
	}
	if advanced == 0 {
		t.Error("no peer advanced past its first incarnation in RealTime mode")
	}
	if n.Metrics().ExpiryLeaves == 0 {
		t.Error("no expiry-driven departures in RealTime mode")
	}
}

// TestStrategyGatesPollution compares adversary strategies on the same
// workload: the paper's full strategy must pollute at least as much as
// the Rule-1-less variant, and the passive population (which follows the
// protocol faithfully) must stay pollution-free at moderate µ.
func TestStrategyGatesPollution(t *testing.T) {
	frac := func(s adversary.Strategy) float64 {
		cfg := config(0.25, 0.9)
		cfg.Strategy = s
		n := newNetwork(t, cfg)
		if err := n.Run(6000); err != nil {
			t.Fatal(err)
		}
		return n.Snapshot().PollutedFraction
	}
	paper := frac(adversary.StrategyPaper)
	norule1 := frac(adversary.StrategyNoRule1)
	passive := frac(adversary.StrategyPassive)
	if paper < norule1 {
		t.Errorf("paper strategy pollution %v < norule1 %v", paper, norule1)
	}
	if passive > norule1 {
		t.Errorf("passive pollution %v > norule1 %v", passive, norule1)
	}
}

// TestParseStrategy covers the string round-trip used by flags and HTTP
// plans.
func TestParseStrategy(t *testing.T) {
	for _, want := range []adversary.Strategy{
		adversary.StrategyPaper, adversary.StrategyNoRule1, adversary.StrategyPassive,
	} {
		got, err := adversary.ParseStrategy(want.String())
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("ParseStrategy(%q) = %v", want.String(), got)
		}
	}
	if _, err := adversary.ParseStrategy("bogus"); err == nil {
		t.Error("ParseStrategy accepted an unknown strategy")
	}
}

// TestAbsorptionSingleCluster runs one absorption trajectory of the
// analytic chain: a single bootstrap cluster tracked until its spare set
// reaches s = 0 or s = ∆, with Run stopping at absorption.
func TestAbsorptionSingleCluster(t *testing.T) {
	cfg := config(0.2, 0.9)
	cfg.InitialLabelBits = -1 // single root cluster
	cfg.TrackAbsorption = true
	cfg.StopOnAbsorption = true
	n := newNetwork(t, cfg)
	if err := n.Run(1 << 20); err != nil {
		t.Fatal(err)
	}
	rep := n.Absorption()
	if rep.Absorbed() != 1 {
		t.Fatalf("absorbed = %d, want 1 (report %+v)", rep.Absorbed(), rep)
	}
	if rep.Tracking != 0 {
		t.Errorf("still tracking %d clusters after StopOnAbsorption", rep.Tracking)
	}
	if rep.Censored != 0 {
		t.Errorf("censored = %d with a single cluster (no sibling merges)", rep.Censored)
	}
	if total := rep.SafeTime.Mean() + rep.PollutedTime.Mean(); total <= 0 {
		t.Errorf("absorption took %v chain steps, want > 0", total)
	}
}

// TestAbsorptionManyClusters tracks every bootstrap cluster of a larger
// overlay and checks the bookkeeping stays consistent: every tracked
// cluster is eventually absorbed or censored, never both, never twice.
func TestAbsorptionManyClusters(t *testing.T) {
	cfg := config(0.2, 0.9)
	cfg.TrackAbsorption = true
	n := newNetwork(t, cfg)
	if err := n.Run(20000); err != nil {
		t.Fatal(err)
	}
	rep := n.Absorption()
	started := int64(1 << cfg.InitialLabelBits)
	if got := rep.Absorbed() + rep.Censored + int64(rep.Tracking); got != started {
		t.Errorf("absorbed+censored+tracking = %d, want %d", got, started)
	}
	if rep.Absorbed() == 0 {
		t.Error("no cluster absorbed in 20000 events")
	}
}

// TestLabelBitsForPopulation pins the bootstrap sizing helper.
func TestLabelBitsForPopulation(t *testing.T) {
	cases := []struct {
		peers, c, delta, want int
	}{
		{1, 7, 7, 0},
		{10, 7, 7, 0},
		{25, 7, 7, 1},
		{1000, 7, 7, 7},     // 2^7·10 = 1280 vs 2^6·10 = 640
		{100000, 7, 7, 13},  // 2^13·10 = 81920
		{1000000, 7, 7, 17}, // 2^17·10 = 1310720 vs 2^16·10 = 655360
		{1 << 30, 7, 7, 20}, // clamped at MaxInitialLabelBits
	}
	for _, c := range cases {
		if got := LabelBitsForPopulation(c.peers, c.c, c.delta); got != c.want {
			t.Errorf("LabelBitsForPopulation(%d,%d,%d) = %d, want %d",
				c.peers, c.c, c.delta, got, c.want)
		}
	}
}

// TestPeerRecordsRecycled checks the million-peer memory contract: under
// stationary churn the peer registry and record pool stay bounded by the
// peak population, rather than growing with the event count.
func TestPeerRecordsRecycled(t *testing.T) {
	cfg := config(0.1, 0.9)
	cfg.Mode = RealTime
	cfg.StationaryPopulation = true
	n := newNetwork(t, cfg)
	if err := n.Run(8000); err != nil {
		t.Fatal(err)
	}
	// Registry slots = live peers + free slots; both bounded by the peak
	// population, which the controller holds near the bootstrap size.
	if got, limit := len(n.peers), 4*n.targetPop+64; got > limit {
		t.Errorf("peer registry grew to %d slots for target population %d (limit %d)",
			got, n.targetPop, limit)
	}
	live := 0
	for _, p := range n.peers {
		if p != nil {
			live++
		}
	}
	if live != n.Population() {
		t.Errorf("registry live count %d != population %d", live, n.Population())
	}
	// Every live peer's pending expiry must belong to itself: releasing a
	// peer cancels its timer, so a fired expiry always finds its owner.
	for _, p := range n.peers {
		if p != nil && p.expiry == 0 {
			t.Fatalf("%v live in RealTime mode without a pending expiry", p)
		}
	}
}

// TestHugeBootstrapFast sanity-checks the direct bootstrap at scale: a
// 10^5-peer overlay must build in well under test-timeout time with
// FastIdentity (this is the path the swarm scenario scales to 10^6).
func TestHugeBootstrapFast(t *testing.T) {
	if testing.Short() {
		t.Skip("large bootstrap")
	}
	cfg := Config{
		Params:           core.Params{C: 7, Delta: 7, Mu: 0.1, D: 0.9, K: 1, Nu: 0.1},
		IDBits:           64,
		InitialLabelBits: LabelBitsForPopulation(100000, 7, 7),
		FastIdentity:     true,
		Seed:             7,
	}
	n := newNetwork(t, cfg)
	if pop := n.Population(); pop < 50000 || pop > 200000 {
		t.Errorf("population %d far from requested 100000", pop)
	}
	if err := n.Run(2000); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, n)
}

// TestPeerRecordSize guards the peer record's size class: a 10⁶-peer
// overlay holds one record per peer, so 8 more bytes cost 10 MB.
func TestPeerRecordSize(t *testing.T) {
	if strconv.IntSize != 64 {
		t.Skip("the bound is for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Peer{}); got > 96 {
		t.Errorf("Peer is %d bytes, want ≤ 96", got)
	}
}

// bootstrapConfig is a FastIdentity overlay sized for the given
// population.
func bootstrapConfig(peers int) Config {
	return Config{
		Params:           core.Params{C: 7, Delta: 7, Mu: 0.1, D: 0.9, K: 1, Nu: 0.1},
		IDBits:           64,
		InitialLabelBits: LabelBitsForPopulation(peers, 7, 7),
		FastIdentity:     true,
		Seed:             7,
	}
}

// TestBootstrapAllocationsScaleWithClusters checks that bootstrap peers
// cost no allocation of their own: the records share one slab and no
// identifier is built until read. A cluster costs its record, its two
// member slices and its share of the label index.
func TestBootstrapAllocationsScaleWithClusters(t *testing.T) {
	cfg := bootstrapConfig(10000)
	clusters := 1 << cfg.InitialLabelBits
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := New(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if limit := 4*clusters + 200; allocs > float64(limit) {
		t.Errorf("bootstrap of %d clusters made %.0f allocations, want ≤ %d",
			clusters, allocs, limit)
	}
}

// BenchmarkBootstrap builds a 10⁵-peer FastIdentity overlay; allocs/op
// should scale with its 2^13 clusters, not with its peers.
func BenchmarkBootstrap(b *testing.B) {
	cfg := bootstrapConfig(100000)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := New(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
