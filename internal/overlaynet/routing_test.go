package overlaynet

import (
	"testing"

	"targetedattacks/internal/hypercube"
	"targetedattacks/internal/identity"
)

func TestLookupDeliversInCleanOverlay(t *testing.T) {
	n := newNetwork(t, config(0, 0.9))
	const trials = 200
	avail, err := n.LookupAvailability(trials)
	if err != nil {
		t.Fatal(err)
	}
	if avail != 1 {
		t.Errorf("availability = %v in a failure-free overlay, want 1", avail)
	}
}

func TestLookupPathsAreShort(t *testing.T) {
	n := newNetwork(t, config(0, 0.9))
	for i := 0; i < 100; i++ {
		from, err := n.randomID()
		if err != nil {
			t.Fatal(err)
		}
		key, err := n.randomID()
		if err != nil {
			t.Fatal(err)
		}
		res, err := n.Lookup(from, key)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Delivered {
			t.Fatalf("lookup failed in clean overlay: %+v", res)
		}
		// Greedy routing on labels of ≤ 2 bits takes at most 3 clusters.
		if len(res.Path) > 3 {
			t.Errorf("path %v longer than label-length bound", res.Path)
		}
		if !res.Path[len(res.Path)-1].Matches(key) {
			t.Errorf("final cluster %v does not cover key", res.Path[len(res.Path)-1])
		}
	}
}

func TestLookupDropsAtPollutedCluster(t *testing.T) {
	n := newNetwork(t, config(0, 0.9))
	// Manufacture pollution: flip 3 core members of one cluster.
	victim := n.Clusters()[0]
	for i := 0; i < 3; i++ {
		victim.Core[i].Malicious = true
	}
	if !victim.Polluted(n.Config().Params.Quorum()) {
		t.Fatal("victim cluster should be polluted")
	}
	// A lookup whose key lives in the victim must fail.
	keyOwner := victim
	var key identity.ID
	found := false
	for i := 0; i < 10000 && !found; i++ {
		id, err := n.randomID()
		if err != nil {
			t.Fatal(err)
		}
		if keyOwner.Label.Matches(id) {
			key, found = id, true
		}
	}
	if !found {
		t.Fatal("could not sample a key in the victim's region")
	}
	// Source in a different (safe) cluster.
	other := n.Clusters()[3]
	var from identity.ID
	found = false
	for i := 0; i < 10000 && !found; i++ {
		id, err := n.randomID()
		if err != nil {
			t.Fatal(err)
		}
		if other.Label.Matches(id) {
			from, found = id, true
		}
	}
	if !found {
		t.Fatal("could not sample a source id")
	}
	res, err := n.Lookup(from, key)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered {
		t.Error("lookup to a polluted responsible cluster must fail")
	}
	if !res.DropLabel.Equal(victim.Label) {
		t.Errorf("drop label = %v, want %v", res.DropLabel, victim.Label)
	}
	// Availability must now be strictly below 1: the victim owns 1/4 of
	// the id space. Analytically E[avail] = 1/2 exactly — a lookup fails
	// when the source cluster is the victim (1/4), the key's cluster is
	// the victim (1/4, overlap 1/16), or the greedy route passes through
	// it (the 10→01 pair, 1/16) — so the sanity floor sits well below
	// that mean, not on it.
	avail, err := n.LookupAvailability(400)
	if err != nil {
		t.Fatal(err)
	}
	if avail >= 1 {
		t.Errorf("availability = %v with a polluted cluster, want < 1", avail)
	}
	if avail < 0.38 {
		t.Errorf("availability = %v, implausibly low for one polluted cluster of four", avail)
	}
}

func TestLookupAvailabilityDegradesWithAdversary(t *testing.T) {
	run := func(mu, d float64) float64 {
		n := newNetwork(t, config(mu, d))
		if err := n.Run(10000); err != nil {
			t.Fatal(err)
		}
		avail, err := n.LookupAvailability(300)
		if err != nil {
			t.Fatal(err)
		}
		return avail
	}
	clean := run(0, 0.9)
	attacked := run(0.3, 0.95)
	if clean != 1 {
		t.Errorf("clean availability = %v, want 1", clean)
	}
	if attacked >= clean {
		t.Errorf("availability under attack %v did not degrade from %v", attacked, clean)
	}
}

func TestLookupValidation(t *testing.T) {
	n := newNetwork(t, config(0, 0.9))
	if _, err := n.LookupAvailability(0); err == nil {
		t.Error("trials=0: want error")
	}
}

func TestLookupAfterTopologyChanges(t *testing.T) {
	// Exercise routing across an overlay whose labels are no longer
	// uniform (splits and merges happened). A polluted cluster drops
	// lookups it *transits* as well as those it owns, so availability
	// degrades faster than the polluted space share — the residual that
	// redundant routing addresses.
	n := newNetwork(t, config(0.05, 0.5))
	if err := n.Run(20000); err != nil {
		t.Fatal(err)
	}
	snap := n.Snapshot()
	if snap.MinLabelBits == snap.MaxLabelBits && n.Metrics().Splits == 0 {
		t.Skip("topology did not diversify; nothing to exercise")
	}
	avail, err := n.LookupAvailability(300)
	if err != nil {
		t.Fatal(err)
	}
	if avail < 0.5 {
		t.Errorf("availability = %v with a 5%% adversary, implausibly low", avail)
	}
}

func TestRedundantRoutingImprovesAvailability(t *testing.T) {
	n := newNetwork(t, config(0.05, 0.5))
	if err := n.Run(20000); err != nil {
		t.Fatal(err)
	}
	if n.Snapshot().PollutedClusters == 0 {
		t.Skip("no pollution this run; nothing to mitigate")
	}
	const trials = 300
	var single, redundant int
	for i := 0; i < trials; i++ {
		from, err := n.randomID()
		if err != nil {
			t.Fatal(err)
		}
		key, err := n.randomID()
		if err != nil {
			t.Fatal(err)
		}
		res, err := n.Lookup(from, key)
		if err != nil {
			t.Fatal(err)
		}
		if res.Delivered {
			single++
		}
		ok, err := n.LookupRedundant(from, key, 4)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			redundant++
		}
	}
	if redundant < single {
		t.Errorf("redundant routing delivered %d < single-path %d", redundant, single)
	}
	// With 4 disjoint entry points the only common failure is the
	// responsible cluster itself; the gap must be visible.
	if single < trials && redundant == single {
		t.Errorf("redundancy bought nothing: %d vs %d of %d", redundant, single, trials)
	}
}

func TestLookupRedundantValidation(t *testing.T) {
	n := newNetwork(t, config(0, 0.9))
	from, err := n.randomID()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.LookupRedundant(from, from, 0); err == nil {
		t.Error("redundancy=0: want error")
	}
}

func BenchmarkProbeID(b *testing.B) {
	b.ReportAllocs()
	label, err := hypercube.LabelFromString("10110011100011110")
	if err != nil {
		b.Fatal(err)
	}
	key, err := fastInitialID(7, 64)
	if err != nil {
		b.Fatal(err)
	}
	var sink identity.ID
	for b.Loop() {
		sink = probeID(label, key)
	}
	if !label.Matches(sink) {
		b.Fatalf("probe %v does not match %v", sink, label)
	}
}
