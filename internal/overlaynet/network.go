package overlaynet

import (
	"fmt"
	"math/rand"

	"targetedattacks/internal/adversary"
	"targetedattacks/internal/churn"
	"targetedattacks/internal/combin"
	"targetedattacks/internal/core"
	"targetedattacks/internal/des"
	"targetedattacks/internal/hypercube"
	"targetedattacks/internal/identity"
	"targetedattacks/internal/stats"
)

// Mode selects the churn fidelity of the simulation.
type Mode int

// Simulation modes.
const (
	// ModelFidelity mirrors the analytic chain: identifier expiry is
	// folded into leave events through Bernoulli(d^count) draws, exactly
	// as in the Figure 2 transition tree.
	ModelFidelity Mode = iota
	// RealTime schedules explicit incarnation-expiry events on the
	// discrete-event engine; peers leave and rejoin when their
	// identifiers expire (Property 1 enforced literally).
	RealTime
)

// MaxInitialLabelBits bounds the bootstrap topology at 2^20 clusters —
// comfortably past the 10^6-peer regime at the paper's C = ∆ = 7.
const MaxInitialLabelBits = 20

// Config parameterizes a Network.
type Config struct {
	// Params carries C, ∆, µ, d, k, ν.
	Params core.Params
	// IDBits is the identifier width m (default 128).
	IDBits int
	// InitialLabelBits sizes the bootstrap topology at 2^bits clusters
	// (default 3). A negative value selects a single root cluster
	// (2^0 = 1), since 0 is indistinguishable from unset.
	InitialLabelBits int
	// Lifetime is the incarnation lifetime L; 0 derives it from Params.D
	// via L = 6.65·ln2/(1−d).
	Lifetime float64
	// GraceWindow is the clock-skew tolerance W (default 0: perfectly
	// synchronized simulation clocks).
	GraceWindow float64
	// EventRate is the expected number of churn events per time unit
	// (default 1).
	EventRate float64
	// Mode selects ModelFidelity (default) or RealTime.
	Mode Mode
	// UseConsensus runs a real Byzantine agreement (Dolev-Strong seed
	// agreement) for every randomized maintenance decision instead of the
	// agreed-coin abstraction. Expensive; intended for demonstrations and
	// small runs.
	UseConsensus bool
	// FastIdentity derives peer identifiers from a seeded hash instead
	// of issuing an ed25519 certificate per peer. Identifier
	// distribution and the Property 1 hash chain are unchanged; only
	// the certificate (and so UseConsensus, which signs with it) is
	// unavailable. Required in practice for 10^5+ peer populations.
	FastIdentity bool
	// Strategy selects the adversary's playbook (default: the paper's
	// full Section V strategy).
	Strategy adversary.Strategy
	// StationaryPopulation re-balances the join share of the workload
	// around the bootstrap population with a proportional controller.
	// Without it, the raw 50/50 event split of the paper's model slowly
	// drains the overlay (Rule 2 discards joins while honest leaves
	// always succeed) until everything merges into the root cluster.
	StationaryPopulation bool
	// TrackAbsorption records, for every bootstrap cluster, the chain
	// ages (events spent safe and polluted) until the cluster first
	// reaches an absorbing condition of the analytic model (s = 0 or
	// s = ∆), feeding the analytic-vs-simulation cross-validation. Ages
	// count churn events targeting the cluster, matching the chain's
	// time unit, so the statistics are meaningful in ModelFidelity mode.
	TrackAbsorption bool
	// StopOnAbsorption ends Run early once every tracked cluster has
	// absorbed (requires TrackAbsorption). With a single bootstrap
	// cluster this turns Run into one absorption trajectory of the
	// analytic chain.
	StopOnAbsorption bool
	// Seed makes the simulation deterministic.
	Seed int64
}

// withDefaults fills zero fields.
func (c Config) withDefaults() (Config, error) {
	if err := c.Params.Validate(); err != nil {
		return c, fmt.Errorf("overlaynet: %w", err)
	}
	if c.IDBits == 0 {
		c.IDBits = 128
	}
	if c.IDBits < 8 || c.IDBits > identity.MaxIDBits {
		return c, fmt.Errorf("overlaynet: IDBits %d outside [8,%d]", c.IDBits, identity.MaxIDBits)
	}
	if c.InitialLabelBits == 0 {
		c.InitialLabelBits = 3
	} else if c.InitialLabelBits < 0 {
		c.InitialLabelBits = 0
	}
	if c.InitialLabelBits > MaxInitialLabelBits {
		return c, fmt.Errorf("overlaynet: InitialLabelBits %d outside [0,%d]", c.InitialLabelBits, MaxInitialLabelBits)
	}
	if c.Lifetime == 0 {
		if c.Params.D > 0 {
			l, err := combin.LifetimeFromSurvival(c.Params.D)
			if err != nil {
				return c, err
			}
			c.Lifetime = l
		} else {
			c.Lifetime = 1 // d = 0: identifiers expire every event on average
		}
	}
	if c.Lifetime <= 0 {
		return c, fmt.Errorf("overlaynet: non-positive lifetime %v", c.Lifetime)
	}
	if c.GraceWindow < 0 {
		return c, fmt.Errorf("overlaynet: negative grace window %v", c.GraceWindow)
	}
	if c.EventRate == 0 {
		c.EventRate = 1
	}
	if c.EventRate <= 0 {
		return c, fmt.Errorf("overlaynet: non-positive event rate %v", c.EventRate)
	}
	if c.FastIdentity && c.UseConsensus {
		return c, fmt.Errorf("overlaynet: UseConsensus requires certificates; disable FastIdentity")
	}
	if c.StopOnAbsorption && !c.TrackAbsorption {
		return c, fmt.Errorf("overlaynet: StopOnAbsorption requires TrackAbsorption")
	}
	return c, nil
}

// LabelBitsForPopulation returns the InitialLabelBits whose bootstrap
// population (2^bits clusters of C+⌊∆/2⌋ members) comes closest to the
// requested peer count, clamped to [0, MaxInitialLabelBits].
func LabelBitsForPopulation(peers, c, delta int) int {
	per := c + delta/2
	if per < 1 {
		per = 1
	}
	bits := 0
	for bits < MaxInitialLabelBits {
		here := (1 << bits) * per
		next := (1 << (bits + 1)) * per
		if peers-here <= next-peers {
			break
		}
		bits++
	}
	return bits
}

// Metrics counts protocol activity.
type Metrics struct {
	Events          int64 // churn events processed
	Joins           int64 // successful join operations
	DiscardedJoins  int64 // joins suppressed by Rule 2
	Leaves          int64 // completed leave operations
	RefusedLeaves   int64 // leave events refused by unexpired malicious peers
	VoluntaryLeaves int64 // Rule 1 departures
	ExpiryLeaves    int64 // Property 1 forced departures (RealTime mode)
	Splits          int64
	Merges          int64
	DeferredSplits  int64 // split condition met but a child would underflow
	DeferredMerges  int64 // merge condition met but sibling not a leaf
	CoreUnderflows  int64 // core left below C with an empty spare set
	ConsensusRuns   int64 // Byzantine agreements executed (UseConsensus)
}

// Snapshot is an instantaneous view of the overlay.
type Snapshot struct {
	Time             float64
	Clusters         int
	PollutedClusters int
	Peers            int
	MaliciousPeers   int
	MinLabelBits     int
	MaxLabelBits     int
	PollutedFraction float64
}

// AbsorptionReport aggregates the per-cluster absorption trajectories
// recorded under Config.TrackAbsorption: each tracked (bootstrap)
// cluster contributes one sample when its spare set first reaches an
// absorbing condition of the analytic chain — s = 0 (merge) or s = ∆
// (split) — classified safe or polluted by its core at that instant.
type AbsorptionReport struct {
	// SafeTime and PollutedTime are the per-cluster chain ages (events
	// targeting the cluster spent in safe resp. polluted states) over
	// the absorbed clusters; SafeTime.Mean() estimates the chain's
	// E(T_S) and PollutedTime.Mean() its E(T_P).
	SafeTime     stats.Running
	PollutedTime stats.Running
	// Absorbing-class counts over the absorbed clusters.
	SafeMerge, SafeSplit, PollutedMerge, PollutedSplit int64
	// EverPolluted counts absorbed clusters that were polluted at any
	// point of their trajectory.
	EverPolluted int64
	// Censored counts tracked clusters consumed by a sibling's merge
	// before reaching their own absorbing condition.
	Censored int64
	// Tracking counts clusters still tracked (not yet absorbed).
	Tracking int
}

// Absorbed returns the number of completed absorption samples.
func (r AbsorptionReport) Absorbed() int64 {
	return r.SafeMerge + r.SafeSplit + r.PollutedMerge + r.PollutedSplit
}

// Network is the running overlay.
type Network struct {
	cfg    Config
	ca     *identity.CA
	engine *des.Engine
	rng    *rand.Rand
	adv    *adversary.Adversary
	gen    *churn.Uniform

	// clusters is the dense, slot-indexed cluster set; byLabel interns
	// labels to slots so the operation path never hashes a string.
	clusters []*Cluster
	byLabel  map[hypercube.Label]int32

	// peers is the slot-indexed registry of live peers: expiry events
	// carry the slot as their payload. Records of departed peers are
	// recycled through pool.
	peers    []*Peer
	peerFree []int32
	pool     []*Peer

	expiryKind des.Kind

	metrics  Metrics
	peerSeq  int64
	asyncErr error // first error raised inside a scheduled expiry event
	// targetPop is the bootstrap population targeted by the
	// StationaryPopulation controller.
	targetPop int
	// population tracks the live member count incrementally.
	population int

	// Absorption tracking aggregates (Config.TrackAbsorption).
	absorb      AbsorptionReport
	trackedLive int
}

// New bootstraps an overlay of 2^InitialLabelBits clusters, each with a
// full core of C peers and about ∆/2 spares, malicious with probability µ.
func New(cfg Config) (*Network, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	ca, err := identity.NewCA("overlay-ca", cfg.Seed)
	if err != nil {
		return nil, err
	}
	adv, err := adversary.NewStrategic(cfg.Params, cfg.Seed+1, cfg.Strategy)
	if err != nil {
		return nil, err
	}
	gen, err := churn.NewUniform(cfg.Seed+2, cfg.EventRate, cfg.Params.Mu, 0.5)
	if err != nil {
		return nil, err
	}
	n := &Network{
		cfg:     cfg,
		ca:      ca,
		engine:  des.NewEngine(),
		rng:     rand.New(rand.NewSource(cfg.Seed + 3)),
		adv:     adv,
		byLabel: make(map[hypercube.Label]int32),
		gen:     gen,
	}
	kind, err := n.engine.RegisterKind(n.handleExpiry)
	if err != nil {
		return nil, err
	}
	n.expiryKind = kind
	if err := n.bootstrap(); err != nil {
		return nil, err
	}
	return n, nil
}

// bootstrap builds the initial balanced topology: each of the
// 2^InitialLabelBits clusters is populated directly with C core members
// and ⌊∆/2⌋ spares whose identifiers are forced into the cluster's
// prefix region (uniform beyond the prefix). This is distributionally
// equivalent to the rejection sampling of earlier versions conditioned
// on the balanced fill, and it is what makes 10^6-peer bootstraps
// feasible: rejection over 2^20 labels is a coupon-collector blowup.
func (n *Network) bootstrap() error {
	labels := []hypercube.Label{hypercube.RootLabel()}
	for b := 0; b < n.cfg.InitialLabelBits; b++ {
		next := make([]hypercube.Label, 0, 2*len(labels))
		for _, l := range labels {
			c0, err := l.Child(0)
			if err != nil {
				return err
			}
			c1, err := l.Child(1)
			if err != nil {
				return err
			}
			next = append(next, c0, c1)
		}
		labels = next
	}
	target := n.cfg.Params.C + n.cfg.Params.Delta/2
	n.clusters = make([]*Cluster, 0, len(labels))
	for _, l := range labels {
		cl := &Cluster{Label: l}
		n.addCluster(cl)
		if n.cfg.TrackAbsorption {
			cl.track = true
			n.trackedLive++
		}
		cl.Core = make([]*Peer, 0, n.cfg.Params.C)
		cl.Spare = make([]*Peer, 0, target-n.cfg.Params.C)
		for i := 0; i < target; i++ {
			p, err := n.newPeer(n.rng.Float64() < n.cfg.Params.Mu, n.rng.Int63())
			if err != nil {
				return err
			}
			p.CurrentID = probeID(l, p.CurrentID)
			if i < n.cfg.Params.C {
				cl.Core = append(cl.Core, p)
			} else {
				cl.Spare = append(cl.Spare, p)
			}
			if n.cfg.Mode == RealTime {
				n.scheduleExpiry(p)
			}
		}
	}
	n.targetPop = n.population
	return nil
}

// Population returns the total number of overlay members.
func (n *Network) Population() int { return n.population }

// newPeer registers a fresh peer. In RealTime mode the certificate
// creation time is backdated uniformly within one lifetime so
// incarnation expiries are staggered. Records of departed peers are
// recycled, so steady-state churn allocates no new peers.
func (n *Network) newPeer(malicious bool, seed int64) (*Peer, error) {
	n.peerSeq++
	t0 := n.engine.Now()
	if n.cfg.Mode == RealTime {
		// Backdating staggers incarnation expiries; a negative t0 models
		// a certificate issued before the simulation started.
		t0 -= n.rng.Float64() * n.cfg.Lifetime
	}
	var p *Peer
	if k := len(n.pool); k > 0 {
		p = n.pool[k-1]
		n.pool = n.pool[:k-1]
		*p = Peer{}
	} else {
		p = &Peer{}
	}
	p.Seq = n.peerSeq
	p.Malicious = malicious
	p.t0 = t0
	if n.cfg.FastIdentity {
		id0, err := fastInitialID(seed, n.cfg.IDBits)
		if err != nil {
			return nil, err
		}
		p.id0 = id0
	} else {
		idn, err := identity.NewIdentity(n.ca, fmt.Sprintf("peer-%d", n.peerSeq), t0, n.cfg.IDBits, seed)
		if err != nil {
			return nil, err
		}
		p.Identity = idn
		p.id0 = idn.InitialID()
	}
	if err := p.Refresh(n.engine.Now(), n.cfg.Lifetime); err != nil {
		return nil, err
	}
	if k := len(n.peerFree); k > 0 {
		p.slot = n.peerFree[k-1]
		n.peerFree = n.peerFree[:k-1]
		n.peers[p.slot] = p
	} else {
		p.slot = int32(len(n.peers))
		n.peers = append(n.peers, p)
	}
	n.population++
	return p, nil
}

// releasePeer retires a departed peer: its pending expiry (if any) is
// canceled, its registry slot freed, and its record pooled for reuse.
func (n *Network) releasePeer(p *Peer) {
	if p.expiry != 0 {
		n.engine.Cancel(p.expiry)
		p.expiry = 0
	}
	n.peers[p.slot] = nil
	n.peerFree = append(n.peerFree, p.slot)
	n.pool = append(n.pool, p)
	n.population--
}

// findCluster locates the unique cluster whose label prefixes id by
// walking prefixes of increasing length through the interned label
// index.
func (n *Network) findCluster(id identity.ID) (*Cluster, error) {
	l := hypercube.RootLabel()
	for depth := 0; depth <= hypercube.MaxLabelBits; depth++ {
		if slot, ok := n.byLabel[l]; ok {
			cl := n.clusters[slot]
			if !cl.Label.Matches(id) {
				return nil, fmt.Errorf("overlaynet: cluster %v does not match id %v", cl.Label, id)
			}
			return cl, nil
		}
		if depth == hypercube.MaxLabelBits {
			break
		}
		bit, err := id.Bit(depth)
		if err != nil {
			return nil, err
		}
		l, err = l.Child(bit)
		if err != nil {
			return nil, err
		}
	}
	return nil, fmt.Errorf("overlaynet: no cluster matches id %v", id)
}

// Run processes the next `events` churn events. In RealTime mode,
// identifier expiries interleave at their scheduled instants. With
// StopOnAbsorption, Run returns as soon as every tracked cluster has
// absorbed.
func (n *Network) Run(events int) error {
	for i := 0; i < events; i++ {
		if n.cfg.StopOnAbsorption && n.trackedLive == 0 {
			return nil
		}
		ev, err := n.gen.Next()
		if err != nil {
			return err
		}
		if n.cfg.Mode == RealTime {
			// Let scheduled expiries up to the event time fire first.
			if _, err := n.engine.RunUntil(ev.Time); err != nil {
				return err
			}
		}
		n.metrics.Events++
		kind := ev.Kind
		if n.cfg.StationaryPopulation {
			kind = n.rebalancedKind(ev)
		}
		switch kind {
		case churn.Join:
			malicious := ev.Malicious
			if ev.Kind != churn.Join {
				// A rebalanced leave-turned-join needs a fresh draw.
				malicious = n.rng.Float64() < n.cfg.Params.Mu
			}
			err = n.handleJoin(malicious, ev.PeerSeed)
		case churn.Leave:
			err = n.handleLeave()
		}
		if err != nil {
			return fmt.Errorf("overlaynet: event %d (%v): %w", ev.Seq, ev.Kind, err)
		}
		if n.asyncErr != nil {
			err := n.asyncErr
			n.asyncErr = nil
			return fmt.Errorf("overlaynet: expiry event: %w", err)
		}
	}
	return nil
}

// rebalancedKind redraws the event kind with a join probability steered
// toward the bootstrap population: p = 0.5 + 0.4·(target−pop)/target,
// clamped to [0.1, 0.9]. It keeps the overlay stationary despite the
// join/leave asymmetries the adversary introduces (Rule 2 discards,
// refused leaves).
func (n *Network) rebalancedKind(ev churn.Event) churn.Kind {
	pop := n.population
	p := 0.5
	if n.targetPop > 0 {
		p += 0.4 * float64(n.targetPop-pop) / float64(n.targetPop)
	}
	if p < 0.1 {
		p = 0.1
	}
	if p > 0.9 {
		p = 0.9
	}
	if n.rng.Float64() < p {
		return churn.Join
	}
	return churn.Leave
}

// handleJoin implements the join operation of Section IV plus Rule 2.
func (n *Network) handleJoin(malicious bool, seed int64) error {
	p, err := n.newPeer(malicious, seed)
	if err != nil {
		return err
	}
	accepted, err := n.joinPeer(p, true)
	if err != nil {
		return err
	}
	if !accepted {
		n.releasePeer(p)
	}
	return nil
}

// joinPeer routes p to its cluster and inserts it into the spare set.
// It reports whether the cluster accepted the peer (Rule 2 may discard
// it). churnEvent marks joins driven by the churn workload, which tick
// the target cluster's chain age.
func (n *Network) joinPeer(p *Peer, churnEvent bool) (bool, error) {
	cl, err := n.findCluster(p.CurrentID)
	if err != nil {
		return false, err
	}
	if churnEvent {
		n.tick(cl)
	}
	view := cl.View(n.cfg.Params.C, n.cfg.Params.Delta)
	if n.adv.ShouldDiscardJoin(view, p.Malicious) {
		n.metrics.DiscardedJoins++
		return false, nil
	}
	cl.Spare = append(cl.Spare, p)
	n.metrics.Joins++
	if cl.MergePending && cl.SpareSize() > 0 {
		cl.MergePending = false
	}
	if n.cfg.Mode == RealTime {
		n.scheduleExpiry(p)
	}
	// Refill an underflowed core immediately.
	if len(cl.Core) < n.cfg.Params.C {
		if err := n.promoteSpare(cl); err != nil {
			return true, err
		}
	}
	n.observe(cl)
	if cl.SpareSize() >= n.cfg.Params.Delta || cl.SplitPending {
		return true, n.split(cl)
	}
	return true, nil
}

// handleLeave implements the leave operation of Section IV: the event
// targets a uniform member of a uniform cluster; honest peers comply,
// malicious peers refuse unless Property 1 (expiry) forces them or
// Rule 1 makes the departure profitable.
func (n *Network) handleLeave() error {
	cl := n.randomCluster()
	if cl == nil {
		return fmt.Errorf("overlaynet: no clusters")
	}
	total := cl.Size()
	if total == 0 {
		return nil
	}
	n.tick(cl)
	idx := n.rng.Intn(total)
	fromCore := idx < len(cl.Core)
	var p *Peer
	if fromCore {
		p = cl.Core[idx]
	} else {
		p = cl.Spare[idx-len(cl.Core)]
	}
	if !p.Malicious {
		n.metrics.Leaves++
		return n.departAndRelease(cl, p)
	}
	// Malicious member targeted: expired?
	expired := false
	switch n.cfg.Mode {
	case ModelFidelity:
		count := cl.MaliciousSpare()
		if fromCore {
			count = cl.MaliciousCore()
		}
		expired = !n.adv.SampleSurvival(count)
	case RealTime:
		expired = p.ExpiresAt(n.cfg.Lifetime) <= n.engine.Now()
	}
	if n.adv.CompliesWithLeave(expired) {
		n.metrics.Leaves++
		return n.departAndRelease(cl, p)
	}
	// Rule 1: a safe cluster's colluding core may still profit from a
	// voluntary departure.
	if fromCore {
		view := cl.View(n.cfg.Params.C, n.cfg.Params.Delta)
		fires, err := n.adv.ShouldTriggerVoluntaryLeave(view)
		if err != nil {
			return err
		}
		if fires {
			n.metrics.VoluntaryLeaves++
			n.metrics.Leaves++
			return n.departAndRelease(cl, p)
		}
	}
	n.metrics.RefusedLeaves++
	return nil
}

// departAndRelease runs a churn departure and retires the peer record.
func (n *Network) departAndRelease(cl *Cluster, p *Peer) error {
	if err := n.processDeparture(cl, p); err != nil {
		return err
	}
	n.releasePeer(p)
	return nil
}

// processDeparture removes p from its cluster and runs the follow-up
// operation (spare shrink or core maintenance), then checks the merge
// condition. The peer record stays live (expiry rejoins reuse it).
func (n *Network) processDeparture(cl *Cluster, p *Peer) error {
	role, idx := cl.indexOf(p)
	switch role {
	case "spare":
		if _, err := cl.removeSpare(idx); err != nil {
			return err
		}
	case "core":
		if _, err := cl.removeCore(idx); err != nil {
			return err
		}
		if err := n.maintainCore(cl); err != nil {
			return err
		}
	default:
		return fmt.Errorf("overlaynet: %s not in %v", p.Name(), cl.Label)
	}
	n.observe(cl)
	if cl.SpareSize() == 0 {
		return n.tryMerge(cl)
	}
	return nil
}

// randomCluster picks a uniform cluster (join/leave events are uniform
// over clusters, Section III-A) from the dense slot index in O(1).
func (n *Network) randomCluster() *Cluster {
	if len(n.clusters) == 0 {
		return nil
	}
	return n.clusters[n.rng.Intn(len(n.clusters))]
}

// tick advances a tracked cluster's chain age by one churn event,
// classified by the cluster's state before the event takes effect —
// matching the analytic chain, which counts transitions out of a state.
func (n *Network) tick(cl *Cluster) {
	if !cl.track {
		return
	}
	if cl.Polluted(n.cfg.Params.Quorum()) {
		cl.pollutedAge++
		cl.everPolluted = true
	} else {
		cl.safeAge++
	}
}

// observe checks a tracked cluster against the analytic chain's
// absorbing conditions after an operation changed its membership, and
// records the absorption sample the first time one holds.
func (n *Network) observe(cl *Cluster) {
	if !cl.track {
		return
	}
	polluted := cl.Polluted(n.cfg.Params.Quorum())
	if polluted {
		cl.everPolluted = true
	}
	s := cl.SpareSize()
	if s != 0 && s < n.cfg.Params.Delta {
		return
	}
	cl.track = false
	n.trackedLive--
	n.absorb.SafeTime.Observe(float64(cl.safeAge))
	n.absorb.PollutedTime.Observe(float64(cl.pollutedAge))
	if cl.everPolluted {
		n.absorb.EverPolluted++
	}
	switch {
	case s == 0 && polluted:
		n.absorb.PollutedMerge++
	case s == 0:
		n.absorb.SafeMerge++
	case polluted:
		n.absorb.PollutedSplit++
	default:
		n.absorb.SafeSplit++
	}
}

// censor stops tracking a cluster consumed by its sibling's merge
// before reaching its own absorbing condition.
func (n *Network) censor(cl *Cluster) {
	if !cl.track {
		return
	}
	cl.track = false
	n.trackedLive--
	n.absorb.Censored++
}

// Absorption returns the absorption statistics recorded so far under
// Config.TrackAbsorption.
func (n *Network) Absorption() AbsorptionReport {
	r := n.absorb
	r.Tracking = n.trackedLive
	return r
}
