package overlaynet

import (
	"crypto/sha256"
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

// identifierPins extends the stream pins to the identifiers themselves:
// a wrong identifier that still routes to the same cluster moves no
// counter, but it moves the digest of every live peer's identifier.
// The RealTime runs advance bootstrap peers through expiries, so the
// Property 1 hash chain is checked from its first incarnation on, in
// both identity modes.
var identifierPins = []struct {
	name   string
	fast   bool
	mode   Mode
	bits   int // identifier width m
	labels int // InitialLabelBits
	events int
	want   string
}{
	{"fast/realtime", true, RealTime, 100, 8, 30,
		"{Events:30 Joins:1503 DiscardedJoins:226 Leaves:8 RefusedLeaves:7 VoluntaryLeaves:0 ExpiryLeaves:1714 Splits:273 Merges:307 DeferredSplits:330 DeferredMerges:11 CoreUnderflows:100 ConsensusRuns:0} {Time:31.373209018772425 Clusters:222 PollutedClusters:49 Peers:2341 MaliciousPeers:542 MinLabelBits:7 MaxLabelBits:9 PollutedFraction:0.22072072072072071} 8899424ede868b9e95d999ba91bf4fd90f1ec9805884e5aae1f4eb008eff3d92"},
	{"fast/model", true, ModelFidelity, 64, 8, 4000,
		"{Events:4000 Joins:1592 DiscardedJoins:404 Leaves:1600 RefusedLeaves:404 VoluntaryLeaves:0 ExpiryLeaves:0 Splits:227 Merges:263 DeferredSplits:415 DeferredMerges:10 CoreUnderflows:115 ConsensusRuns:0} {Time:0 Clusters:220 PollutedClusters:85 Peers:2552 MaliciousPeers:830 MinLabelBits:7 MaxLabelBits:9 PollutedFraction:0.38636363636363635} ec8b4ba054cf11d363fff91dbcb0c15c11a4fa01df37b0550cb3d8ce9d464a3a"},
	{"certificate/realtime", false, RealTime, 128, 4, 25,
		"{Events:25 Joins:90 DiscardedJoins:17 Leaves:9 RefusedLeaves:3 VoluntaryLeaves:0 ExpiryLeaves:94 Splits:10 Merges:12 DeferredSplits:17 DeferredMerges:0 CoreUnderflows:3 ConsensusRuns:0} {Time:26.385495584119614 Clusters:14 PollutedClusters:2 Peers:147 MaliciousPeers:35 MinLabelBits:3 MaxLabelBits:5 PollutedFraction:0.14285714285714285} 4921c53b4ae4b16e46f40643174f376ffa06b76a1621c2ad55c642e1b9e2ecdd"},
}

// TestIdentifierPins runs small overlays and pins their Metrics,
// Snapshot and a sha256 digest over every live peer's cluster label,
// sequence number, incarnation and identifier.
func TestIdentifierPins(t *testing.T) {
	for _, pin := range identifierPins {
		t.Run(pin.name, func(t *testing.T) {
			cfg := Config{
				Params:               core.Params{C: 7, Delta: 7, Mu: 0.2, D: 0.9, K: 1, Nu: 0.1},
				IDBits:               pin.bits,
				InitialLabelBits:     pin.labels,
				FastIdentity:         pin.fast,
				Mode:                 pin.mode,
				StationaryPopulation: true,
				Seed:                 5,
			}
			n := newNetwork(t, cfg)
			if err := n.Run(pin.events); err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			for _, cl := range n.Clusters() {
				for _, p := range append(append([]*Peer(nil), cl.Core...), cl.Spare...) {
					fmt.Fprintf(h, "%v %d %d %v\n", cl.Label, p.Seq, p.Incarnation, p.ID())
				}
			}
			got := fmt.Sprintf("%+v %+v %x", n.Metrics(), n.Snapshot(), h.Sum(nil))
			if got != pin.want {
				t.Errorf("identifiers moved:\n got  %s\n want %s", got, pin.want)
			}
		})
	}
}
