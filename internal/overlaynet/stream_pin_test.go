package overlaynet

import (
	"fmt"
	"testing"

	"targetedattacks/internal/adversary"
	"targetedattacks/internal/core"
)

// streamPins holds every Metrics and Snapshot field of small
// fast-identity overlays run under the swarm workload's parameters. Any
// change to the simulation's random streams (the churn RNG, identifier
// derivation, the agreed-coin SelectIndices draws) moves at least one
// of them, so an optimisation of those paths must leave them untouched.
// A deliberate stream change re-pins them together with the swarm
// benchmark digests.
var streamPins = []struct {
	strategy adversary.Strategy
	k        int
	seed     int64
	want     string
}{
	{adversary.StrategyPaper, 1, 1,
		"{Events:20000 Joins:8565 DiscardedJoins:1313 Leaves:8225 RefusedLeaves:1897 VoluntaryLeaves:0 ExpiryLeaves:0 Splits:1051 Merges:1218 DeferredSplits:1459 DeferredMerges:21 CoreUnderflows:460 ConsensusRuns:0} {Time:0 Clusters:1881 PollutedClusters:463 Peers:20820 MaliciousPeers:5413 MinLabelBits:10 MaxLabelBits:12 PollutedFraction:0.24614566719829878}"},
	{adversary.StrategyPaper, 1, 2,
		"{Events:20000 Joins:8404 DiscardedJoins:1433 Leaves:8242 RefusedLeaves:1921 VoluntaryLeaves:0 ExpiryLeaves:0 Splits:1080 Merges:1234 DeferredSplits:1547 DeferredMerges:22 CoreUnderflows:450 ConsensusRuns:0} {Time:0 Clusters:1894 PollutedClusters:508 Peers:20642 MaliciousPeers:5472 MinLabelBits:10 MaxLabelBits:12 PollutedFraction:0.2682154171066526}"},
	{adversary.StrategyPaper, 1, 3,
		"{Events:20000 Joins:8419 DiscardedJoins:1399 Leaves:8281 RefusedLeaves:1901 VoluntaryLeaves:0 ExpiryLeaves:0 Splits:1063 Merges:1253 DeferredSplits:1613 DeferredMerges:25 CoreUnderflows:478 ConsensusRuns:0} {Time:0 Clusters:1858 PollutedClusters:496 Peers:20618 MaliciousPeers:5516 MinLabelBits:10 MaxLabelBits:12 PollutedFraction:0.26695371367061355}"},
	{adversary.StrategyPassive, 1, 1,
		"{Events:20000 Joins:9986 DiscardedJoins:0 Leaves:10014 RefusedLeaves:0 VoluntaryLeaves:0 ExpiryLeaves:0 Splits:1572 Merges:1721 DeferredSplits:1804 DeferredMerges:46 CoreUnderflows:700 ConsensusRuns:0} {Time:0 Clusters:1899 PollutedClusters:262 Peers:20452 MaliciousPeers:3977 MinLabelBits:10 MaxLabelBits:12 PollutedFraction:0.13796735123749343}"},
	{adversary.StrategyPassive, 1, 2,
		"{Events:20000 Joins:9965 DiscardedJoins:0 Leaves:10035 RefusedLeaves:0 VoluntaryLeaves:0 ExpiryLeaves:0 Splits:1597 Merges:1751 DeferredSplits:1875 DeferredMerges:19 CoreUnderflows:736 ConsensusRuns:0} {Time:0 Clusters:1894 PollutedClusters:251 Peers:20410 MaliciousPeers:4075 MinLabelBits:10 MaxLabelBits:12 PollutedFraction:0.13252375923970433}"},
	{adversary.StrategyPassive, 1, 3,
		"{Events:20000 Joins:9964 DiscardedJoins:0 Leaves:10036 RefusedLeaves:0 VoluntaryLeaves:0 ExpiryLeaves:0 Splits:1645 Merges:1835 DeferredSplits:1847 DeferredMerges:39 CoreUnderflows:766 ConsensusRuns:0} {Time:0 Clusters:1858 PollutedClusters:262 Peers:20408 MaliciousPeers:3960 MinLabelBits:10 MaxLabelBits:12 PollutedFraction:0.14101184068891282}"},
	// k > 1 pushes core survivors and promotes several spares per
	// maintenance.
	{adversary.StrategyPaper, 3, 1,
		"{Events:20000 Joins:8517 DiscardedJoins:1486 Leaves:8189 RefusedLeaves:1808 VoluntaryLeaves:0 ExpiryLeaves:0 Splits:1046 Merges:1195 DeferredSplits:1523 DeferredMerges:24 CoreUnderflows:460 ConsensusRuns:0} {Time:0 Clusters:1899 PollutedClusters:546 Peers:20808 MaliciousPeers:5408 MinLabelBits:10 MaxLabelBits:12 PollutedFraction:0.28751974723538704}"},
	{adversary.StrategyPassive, 3, 1,
		"{Events:20000 Joins:10015 DiscardedJoins:0 Leaves:9985 RefusedLeaves:0 VoluntaryLeaves:0 ExpiryLeaves:0 Splits:1584 Merges:1746 DeferredSplits:1888 DeferredMerges:32 CoreUnderflows:721 ConsensusRuns:0} {Time:0 Clusters:1886 PollutedClusters:267 Peers:20510 MaliciousPeers:3970 MinLabelBits:10 MaxLabelBits:12 PollutedFraction:0.1415694591728526}"},
}

// TestStreamPins runs ~2×10⁴-peer overlays for 2×10⁴ churn events and
// compares every Metrics and Snapshot field with the pinned rendering.
func TestStreamPins(t *testing.T) {
	const peers, events = 20000, 20000
	for _, pin := range streamPins {
		name := fmt.Sprintf("%v/k%d/seed%d", pin.strategy, pin.k, pin.seed)
		t.Run(name, func(t *testing.T) {
			cfg := Config{
				Params:               core.Params{C: 7, Delta: 7, Mu: 0.2, D: 0.9, K: pin.k, Nu: 0.1},
				IDBits:               64,
				InitialLabelBits:     LabelBitsForPopulation(peers, 7, 7),
				FastIdentity:         true,
				Strategy:             pin.strategy,
				StationaryPopulation: true,
				Seed:                 pin.seed,
			}
			n := newNetwork(t, cfg)
			if err := n.Run(events); err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprintf("%+v %+v", n.Metrics(), n.Snapshot())
			if got != pin.want {
				t.Errorf("stream moved:\n got  %s\n want %s", got, pin.want)
			}
		})
	}
}
