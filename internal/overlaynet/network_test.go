package overlaynet

import (
	"math/rand"
	"testing"

	"targetedattacks/internal/core"
	"targetedattacks/internal/hypercube"
	"targetedattacks/internal/identity"
)

func config(mu, d float64) Config {
	return Config{
		Params: core.Params{C: 7, Delta: 7, Mu: mu, D: d, K: 1, Nu: 0.1},
		IDBits: 64,
		// 2^2 = 4 clusters keeps bootstrap fast in tests.
		InitialLabelBits: 2,
		Seed:             42,
	}
}

func newNetwork(t *testing.T, cfg Config) *Network {
	t.Helper()
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// checkInvariants verifies structural invariants that must hold after any
// sequence of operations.
func checkInvariants(t *testing.T, n *Network) {
	t.Helper()
	cfg := n.Config()
	clusters := n.Clusters()
	if len(clusters) == 0 {
		t.Fatal("overlay has no clusters")
	}
	seen := make(map[string]bool)
	for _, cl := range clusters {
		// Labels unique.
		if seen[cl.Label.String()] {
			t.Fatalf("duplicate cluster label %v", cl.Label)
		}
		seen[cl.Label.String()] = true
		// Core never exceeds C; spare exceeds ∆ only while a split is
		// deferred (a child half would underflow C).
		if len(cl.Core) > cfg.Params.C {
			t.Errorf("%v: core size %d > C", cl, len(cl.Core))
		}
		if cl.SpareSize() > cfg.Params.Delta && !cl.SplitPending {
			t.Errorf("%v: spare size %d > ∆ without a pending split", cl, cl.SpareSize())
		}
		// Membership: every member's identifier matches the label
		// (Property 1 in ModelFidelity mode holds by construction).
		for _, p := range append(append([]*Peer(nil), cl.Core...), cl.Spare...) {
			// expirePeer routes a pending peer by its stored prefix.
			if p.pending && !cl.Label.Matches(p.id) {
				t.Errorf("%v: pending member %v prefix %v does not match label",
					cl, p, p.id)
			}
			if !cl.Label.Matches(p.ID()) {
				t.Errorf("%v: member %v id %v does not match label",
					cl, p, p.ID())
			}
		}
	}
	// Labels form a prefix-free partition: no label prefixes another.
	for _, a := range clusters {
		for _, b := range clusters {
			if a != b && a.Label.IsPrefixOf(b.Label) {
				t.Errorf("label %v prefixes %v: partition broken", a.Label, b.Label)
			}
		}
	}
}

func TestBootstrapInvariants(t *testing.T) {
	n := newNetwork(t, config(0.2, 0.8))
	checkInvariants(t, n)
	snap := n.Snapshot()
	if snap.Clusters != 4 {
		t.Errorf("bootstrap clusters = %d, want 4", snap.Clusters)
	}
	for _, cl := range n.Clusters() {
		if len(cl.Core) != 7 {
			t.Errorf("%v: core %d, want full C=7", cl, len(cl.Core))
		}
		if cl.SpareSize() != 3 {
			t.Errorf("%v: spare %d, want ∆/2 = 3", cl, cl.SpareSize())
		}
	}
}

func TestConfigValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"bad params", func(c *Config) { c.Params.C = 0 }},
		{"bad id bits", func(c *Config) { c.IDBits = 4 }},
		{"bad label bits", func(c *Config) { c.InitialLabelBits = MaxInitialLabelBits + 1 }},
		{"negative lifetime", func(c *Config) { c.Lifetime = -1 }},
		{"negative window", func(c *Config) { c.GraceWindow = -1 }},
		{"negative rate", func(c *Config) { c.EventRate = -2 }},
		{"fast identity with consensus", func(c *Config) { c.FastIdentity = true; c.UseConsensus = true }},
		{"stop without tracking", func(c *Config) { c.StopOnAbsorption = true }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := config(0.1, 0.5)
			tt.mutate(&cfg)
			if _, err := New(cfg); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
}

func TestLifetimeDerivedFromD(t *testing.T) {
	n := newNetwork(t, config(0.1, 0.9))
	// L = 6.65·ln2/0.1 ≈ 46.1.
	if l := n.Config().Lifetime; l < 45 || l > 47 {
		t.Errorf("derived lifetime = %v, want ≈46.05", l)
	}
}

func TestRunMaintainsInvariants(t *testing.T) {
	n := newNetwork(t, config(0.2, 0.8))
	for i := 0; i < 20; i++ {
		if err := n.Run(250); err != nil {
			t.Fatal(err)
		}
		checkInvariants(t, n)
	}
	m := n.Metrics()
	if m.Events != 5000 {
		t.Errorf("events = %d, want 5000", m.Events)
	}
	if m.Joins == 0 || m.Leaves == 0 {
		t.Errorf("no activity: %+v", m)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (Metrics, Snapshot) {
		n := newNetwork(t, config(0.25, 0.85))
		if err := n.Run(3000); err != nil {
			t.Fatal(err)
		}
		return n.Metrics(), n.Snapshot()
	}
	m1, s1 := run()
	m2, s2 := run()
	if m1 != m2 {
		t.Errorf("metrics diverged:\n%+v\n%+v", m1, m2)
	}
	if s1 != s2 {
		t.Errorf("snapshots diverged:\n%+v\n%+v", s1, s2)
	}
}

func TestSplitsAndMergesHappen(t *testing.T) {
	n := newNetwork(t, config(0.1, 0.5))
	if err := n.Run(20000); err != nil {
		t.Fatal(err)
	}
	m := n.Metrics()
	if m.Splits == 0 {
		t.Error("no split in 20000 events")
	}
	if m.Merges == 0 {
		t.Error("no merge in 20000 events")
	}
	checkInvariants(t, n)
}

func TestFailureFreeOverlayNeverPolluted(t *testing.T) {
	n := newNetwork(t, config(0, 0.9))
	if err := n.Run(5000); err != nil {
		t.Fatal(err)
	}
	snap := n.Snapshot()
	if snap.PollutedClusters != 0 {
		t.Errorf("µ=0 produced %d polluted clusters", snap.PollutedClusters)
	}
	if snap.MaliciousPeers != 0 {
		t.Errorf("µ=0 produced %d malicious peers", snap.MaliciousPeers)
	}
	if m := n.Metrics(); m.RefusedLeaves != 0 || m.DiscardedJoins != 0 {
		t.Errorf("µ=0 adversary activity: %+v", m)
	}
}

func TestAdversaryIncreasesPollution(t *testing.T) {
	// Strong adversary with weak churn must pollute more clusters than a
	// mild one. Compare polluted-cluster-time integrated over the run.
	pollutionScore := func(mu, d float64) int {
		n := newNetwork(t, config(mu, d))
		score := 0
		for i := 0; i < 40; i++ {
			if err := n.Run(250); err != nil {
				t.Fatal(err)
			}
			score += n.Snapshot().PollutedClusters
		}
		return score
	}
	weak := pollutionScore(0.05, 0.5)
	strong := pollutionScore(0.30, 0.95)
	if strong <= weak {
		t.Errorf("pollution score: strong adversary %d ≤ weak %d", strong, weak)
	}
}

func TestRefusedLeavesTrackAdversary(t *testing.T) {
	n := newNetwork(t, config(0.3, 0.95))
	if err := n.Run(5000); err != nil {
		t.Fatal(err)
	}
	if n.Metrics().RefusedLeaves == 0 {
		t.Error("high-d malicious peers never refused a leave")
	}
}

func TestRealTimeModeRuns(t *testing.T) {
	cfg := config(0.2, 0.8)
	cfg.Mode = RealTime
	n := newNetwork(t, cfg)
	if err := n.Run(3000); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, n)
	if n.Metrics().ExpiryLeaves == 0 {
		t.Error("RealTime mode produced no expiry-driven churn")
	}
	if n.Now() == 0 {
		t.Error("simulated time did not advance")
	}
}

func TestRealTimeExpiryRefreshesIncarnations(t *testing.T) {
	cfg := config(0.1, 0.5) // short lifetime L ≈ 9.2
	cfg.Mode = RealTime
	n := newNetwork(t, cfg)
	if err := n.Run(4000); err != nil {
		t.Fatal(err)
	}
	// After several lifetimes, surviving bootstrap-era peers must be past
	// incarnation 1.
	var maxInc int64
	for _, cl := range n.Clusters() {
		for _, p := range append(append([]*Peer(nil), cl.Core...), cl.Spare...) {
			if p.Incarnation > maxInc {
				maxInc = p.Incarnation
			}
		}
	}
	if maxInc < 2 {
		t.Errorf("max incarnation = %d, want ≥ 2 after expiry churn", maxInc)
	}
}

func TestConsensusBackedMaintenance(t *testing.T) {
	cfg := config(0.1, 0.5)
	cfg.UseConsensus = true
	n := newNetwork(t, cfg)
	if err := n.Run(300); err != nil {
		t.Fatal(err)
	}
	if n.Metrics().ConsensusRuns == 0 {
		t.Error("UseConsensus produced no agreement runs")
	}
	checkInvariants(t, n)
}

func TestRule2MeasurableInPollutedOverlay(t *testing.T) {
	// With µ=0.3 and d=0.95 pollution occurs; Rule 2 must discard joins.
	n := newNetwork(t, config(0.3, 0.95))
	if err := n.Run(20000); err != nil {
		t.Fatal(err)
	}
	if n.Metrics().DiscardedJoins == 0 {
		t.Error("no Rule 2 discards despite pollution pressure")
	}
}

func TestSnapshotCounts(t *testing.T) {
	n := newNetwork(t, config(0.2, 0.8))
	snap := n.Snapshot()
	var peers int
	for _, cl := range n.Clusters() {
		peers += cl.Size()
	}
	if snap.Peers != peers {
		t.Errorf("snapshot peers = %d, want %d", snap.Peers, peers)
	}
	if snap.MinLabelBits != 2 || snap.MaxLabelBits != 2 {
		t.Errorf("label bits = %d..%d, want 2..2", snap.MinLabelBits, snap.MaxLabelBits)
	}
	if snap.PollutedFraction < 0 || snap.PollutedFraction > 1 {
		t.Errorf("polluted fraction = %v", snap.PollutedFraction)
	}
}

func TestClusterStringAndView(t *testing.T) {
	n := newNetwork(t, config(0.2, 0.8))
	cl := n.Clusters()[0]
	if cl.String() == "" {
		t.Error("cluster String empty")
	}
	v := cl.View(7, 7)
	if v.CoreSize != 7 || v.SpareMax != 7 {
		t.Errorf("view = %+v", v)
	}
	if v.MaliciousCore != cl.MaliciousCore() || v.MaliciousSpare != cl.MaliciousSpare() {
		t.Error("view counts disagree with cluster")
	}
}

func TestStationaryPopulationHoldsSteady(t *testing.T) {
	// With a mild adversary the controller must hold the population near
	// the bootstrap level. (Under full takeover it cannot: Rule 2
	// discards every honest join — the eclipse regime, tested below.)
	cfg := config(0.1, 0.5)
	cfg.StationaryPopulation = true
	n := newNetwork(t, cfg)
	target := n.Population()
	if err := n.Run(20000); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, n)
	pop := n.Population()
	if pop < target/2 || pop > target*2 {
		t.Errorf("population drifted from %d to %d despite controller", target, pop)
	}
}

func TestEclipseRegimeDefeatsController(t *testing.T) {
	// µ=30% with weak churn lets the adversary capture clusters; Rule 2
	// then gates membership, shrinking the population no matter how many
	// joins the workload offers — the takeover signature.
	cfg := config(0.3, 0.9)
	cfg.StationaryPopulation = true
	n := newNetwork(t, cfg)
	target := n.Population()
	if err := n.Run(20000); err != nil {
		t.Fatal(err)
	}
	if n.Metrics().DiscardedJoins == 0 {
		t.Error("takeover regime produced no Rule 2 discards")
	}
	if pop := n.Population(); pop >= target {
		t.Logf("note: population %d did not shrink below %d this run", pop, target)
	}
}

func TestProtocolKVariants(t *testing.T) {
	for _, k := range []int{1, 3, 7} {
		cfg := config(0.2, 0.8)
		cfg.Params.K = k
		n := newNetwork(t, cfg)
		if err := n.Run(3000); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		checkInvariants(t, n)
	}
}

// findClusterWalk is the reference lookup: walk down from the root
// label one identifier bit at a time until a live label matches.
func findClusterWalk(n *Network, id identity.ID) *Cluster {
	l := hypercube.RootLabel()
	for depth := 0; ; depth++ {
		if slot, ok := n.byLabel[l]; ok {
			return n.clusters[slot]
		}
		bit, err := id.Bit(depth)
		if err != nil {
			return nil
		}
		if l, err = l.Child(bit); err != nil {
			return nil
		}
	}
}

// TestFindClusterMatchesWalk compares findCluster, which probes only the
// label depths that hold a cluster, with the root-down walk, on random
// identifiers and on every live peer, while splits and merges move the
// labels across depths. It also recounts the per-depth cluster counts.
func TestFindClusterMatchesWalk(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		cfg := config(0.2, 0.9)
		cfg.IDBits = 61
		cfg.InitialLabelBits = 5
		cfg.FastIdentity = true
		cfg.StationaryPopulation = true
		cfg.Seed = seed
		n := newNetwork(t, cfg)
		keys := rand.New(rand.NewSource(seed))
		for round := 0; round < 8; round++ {
			if err := n.Run(400); err != nil {
				t.Fatal(err)
			}
			var depths [hypercube.MaxLabelBits + 1]int32
			for _, cl := range n.clusters {
				depths[cl.Label.Length()]++
			}
			if depths != n.depthCount {
				t.Fatalf("seed %d: depth counts %v, recount %v", seed, n.depthCount, depths)
			}
			for i := 0; i < 300; i++ {
				var digest [32]byte
				keys.Read(digest[:])
				id, err := identity.NewID(digest, cfg.IDBits)
				if err != nil {
					t.Fatal(err)
				}
				got, err := n.findCluster(id)
				if want := findClusterWalk(n, id); err != nil || got != want {
					t.Fatalf("seed %d: findCluster(%v) = %v, %v; walk finds %v", seed, id, got, err, want)
				}
			}
			for _, cl := range n.clusters {
				for _, p := range append(append([]*Peer(nil), cl.Core...), cl.Spare...) {
					if got, err := n.findCluster(p.ID()); err != nil || got != cl {
						t.Fatalf("seed %d: member %v of %v routed to %v, %v", seed, p, cl, got, err)
					}
				}
			}
		}
		if m := n.Metrics(); m.Splits == 0 || m.Merges == 0 {
			t.Errorf("seed %d: no topology change to test against: %+v", seed, m)
		}
	}
}
