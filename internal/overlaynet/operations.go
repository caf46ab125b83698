package overlaynet

import (
	"encoding/binary"
	"fmt"
	"sort"

	"targetedattacks/internal/adversary"
	"targetedattacks/internal/consensus"
	"targetedattacks/internal/hypercube"
)

// maintainCore restores the core to C members after a departure,
// implementing the core-view maintenance of the leave operation
// (Section IV): in a safe cluster, k−1 random survivors are pushed to the
// spare set and k random spares promoted (protocol_k); in a polluted
// cluster the adversary controls the agreement and promotes a valid
// malicious spare when it has one.
func (n *Network) maintainCore(cl *Cluster) error {
	quorum := n.cfg.Params.Quorum()
	if cl.Polluted(quorum) && n.adv.ControlsMaintenance() {
		return n.maintainCoreBiased(cl)
	}
	return n.maintainCoreRandom(cl)
}

// maintainCoreBiased is the adversary-controlled path.
func (n *Network) maintainCoreBiased(cl *Cluster) error {
	if len(cl.Spare) == 0 {
		n.metrics.CoreUnderflows++
		return nil
	}
	choice := n.adv.BiasMaintenance(cl.View(n.cfg.Params.C, n.cfg.Params.Delta))
	want := choice == adversary.PromoteMaliciousSpare
	idx := cl.firstSpare(want)
	if idx < 0 {
		idx = 0 // fall back to any spare
	}
	p, err := cl.removeSpare(idx)
	if err != nil {
		return err
	}
	cl.Core = append(cl.Core, p)
	return nil
}

// maintainCoreRandom is the honest randomized path of protocol_k.
func (n *Network) maintainCoreRandom(cl *Cluster) error {
	if len(cl.Spare) == 0 {
		n.metrics.CoreUnderflows++
		return nil
	}
	k := n.cfg.Params.K
	seed, err := n.agreementSeed(cl)
	if err != nil {
		return err
	}
	// Push k−1 random core survivors to the spare set.
	push := k - 1
	if push > len(cl.Core) {
		push = len(cl.Core)
	}
	pushIdx, err := consensus.SelectIndices(seed, len(cl.Core), push)
	if err != nil {
		return err
	}
	// Remove from highest index down so earlier indices stay valid.
	sort.Sort(sort.Reverse(sort.IntSlice(pushIdx)))
	for _, i := range pushIdx {
		p, err := cl.removeCore(i)
		if err != nil {
			return err
		}
		cl.Spare = append(cl.Spare, p)
	}
	// Promote random spares until the core is full again.
	need := n.cfg.Params.C - len(cl.Core)
	if need > len(cl.Spare) {
		n.metrics.CoreUnderflows++
		need = len(cl.Spare)
	}
	var promoteSeed [32]byte = seed
	promoteSeed[0] ^= 0xA5 // decorrelate the two draws
	promIdx, err := consensus.SelectIndices(promoteSeed, len(cl.Spare), need)
	if err != nil {
		return err
	}
	sort.Sort(sort.Reverse(sort.IntSlice(promIdx)))
	for _, i := range promIdx {
		p, err := cl.removeSpare(i)
		if err != nil {
			return err
		}
		cl.Core = append(cl.Core, p)
	}
	return nil
}

// promoteSpare promotes one spare into an underfull core (used to refill
// after an underflow once a join arrives). The promotion is random in a
// safe cluster and adversary-biased in a polluted one.
func (n *Network) promoteSpare(cl *Cluster) error {
	if len(cl.Spare) == 0 || len(cl.Core) >= n.cfg.Params.C {
		return nil
	}
	if cl.Polluted(n.cfg.Params.Quorum()) && n.adv.ControlsMaintenance() {
		return n.maintainCoreBiased(cl)
	}
	idx := n.rng.Intn(len(cl.Spare))
	p, err := cl.removeSpare(idx)
	if err != nil {
		return err
	}
	cl.Core = append(cl.Core, p)
	return nil
}

// agreementSeed obtains the shared random seed driving a maintenance
// decision: through a real Dolev-Strong seed agreement among core members
// when UseConsensus is set, or from the deterministic simulation RNG (the
// agreed-coin abstraction) otherwise.
func (n *Network) agreementSeed(cl *Cluster) ([32]byte, error) {
	var seed [32]byte
	if !n.cfg.UseConsensus {
		binary.BigEndian.PutUint64(seed[:8], n.rng.Uint64())
		return seed, nil
	}
	members := make([]*consensus.Member, len(cl.Core))
	contributions := make([][]byte, len(cl.Core))
	for i, p := range cl.Core {
		// In a safe cluster malicious members participate correctly to
		// stay covert (Section V: polluted clusters are detected by
		// deviation; safe-cluster minorities gain nothing by deviating).
		members[i] = &consensus.Member{Index: i, Identity: p.Identity, Behavior: consensus.Honest}
		var c [8]byte
		binary.BigEndian.PutUint64(c[:], n.rng.Uint64())
		contributions[i] = c[:]
	}
	f := n.cfg.Params.Quorum()
	seeds, err := consensus.AgreeOnSeed(members, contributions, f)
	if err != nil {
		return seed, err
	}
	n.metrics.ConsensusRuns++
	for i := range members {
		if s, ok := seeds[i]; ok {
			return s, nil
		}
	}
	return seed, fmt.Errorf("overlaynet: agreement produced no honest seed in %v", cl.Label)
}

// split implements the split operation of Section IV: the cluster divides
// into the two child labels; each child's core keeps the parent core
// members that match it, completed with randomly chosen spares. The split
// is deferred when a child would hold fewer than C members (deviation
// from the idealized model, recorded in Metrics.DeferredSplits).
func (n *Network) split(cl *Cluster) error {
	if cl.SpareSize() < n.cfg.Params.Delta {
		// A previously deferred split whose condition has lapsed.
		cl.SplitPending = false
		return nil
	}
	if !n.adv.WantsSplit(cl.View(n.cfg.Params.C, n.cfg.Params.Delta)) {
		// Rule 2 normally prevents a polluted cluster from ever reaching
		// the split condition; if it does (e.g. via expiry-driven churn),
		// the malicious quorum simply refuses to run the operation.
		cl.SplitPending = true
		n.metrics.DeferredSplits++
		return nil
	}
	c0, err := cl.Label.Child(0)
	if err != nil {
		return err
	}
	c1, err := cl.Label.Child(1)
	if err != nil {
		return err
	}
	children := [2]*Cluster{{Label: c0}, {Label: c1}}
	assign := func(p *Peer, isCore bool) error {
		bit, err := p.ID().Bit(cl.Label.Length())
		if err != nil {
			return err
		}
		child := children[bit]
		if isCore && len(child.Core) < n.cfg.Params.C {
			child.Core = append(child.Core, p)
		} else {
			child.Spare = append(child.Spare, p)
		}
		return nil
	}
	for _, p := range cl.Core {
		if err := assign(p, true); err != nil {
			return err
		}
	}
	for _, p := range cl.Spare {
		if err := assign(p, false); err != nil {
			return err
		}
	}
	if children[0].Size() < n.cfg.Params.C || children[1].Size() < n.cfg.Params.C {
		cl.SplitPending = true
		n.metrics.DeferredSplits++
		return nil
	}
	cl.SplitPending = false
	// Complete child cores with randomly chosen spares (Byzantine
	// agreement among the parent core decides the random choice).
	for _, child := range children {
		for len(child.Core) < n.cfg.Params.C {
			seed, err := n.agreementSeed(cl)
			if err != nil {
				return err
			}
			pick, err := consensus.SelectIndices(seed, len(child.Spare), 1)
			if err != nil {
				return err
			}
			p, err := child.removeSpare(pick[0])
			if err != nil {
				return err
			}
			child.Core = append(child.Core, p)
		}
	}
	n.removeCluster(cl)
	n.addCluster(children[0])
	n.addCluster(children[1])
	n.metrics.Splits++
	// A child may itself satisfy the split condition already.
	for _, child := range children {
		if child.SpareSize() >= n.cfg.Params.Delta {
			if err := n.split(child); err != nil {
				return err
			}
		}
	}
	return nil
}

// tryMerge implements the merge operation of Section IV: a cluster whose
// spare set emptied merges with its sibling; the merged cluster keeps the
// sibling's core and receives the merging core as spares. When the
// sibling has split further (no leaf with the sibling label), the merge
// is deferred and the cluster keeps operating with an empty spare set
// (deviation recorded in Metrics.DeferredMerges).
func (n *Network) tryMerge(cl *Cluster) error {
	if cl.Label.Length() == 0 {
		return nil // the root cluster has nobody to merge with
	}
	sibLabel, err := cl.Label.Sibling()
	if err != nil {
		return err
	}
	sibSlot, ok := n.byLabel[sibLabel]
	if !ok {
		cl.MergePending = true
		n.metrics.DeferredMerges++
		return nil
	}
	sib := n.clusters[sibSlot]
	// The sibling is consumed before reaching its own absorbing
	// condition: its trajectory is censored, not a sample.
	n.censor(sib)
	parent, err := cl.Label.Parent()
	if err != nil {
		return err
	}
	merged := &Cluster{
		Label: parent,
		// Core members of the surviving sibling keep their status.
		Core: append([]*Peer(nil), sib.Core...),
		// The merging cluster's members are pushed to the spare set.
		Spare: append(append([]*Peer(nil), sib.Spare...), append(cl.Core, cl.Spare...)...),
	}
	n.removeCluster(cl)
	n.removeCluster(sib)
	n.addCluster(merged)
	n.metrics.Merges++
	// The union may immediately satisfy the split condition.
	if merged.SpareSize() >= n.cfg.Params.Delta {
		return n.split(merged)
	}
	return nil
}

// scheduleExpiry arms the Property 1 expiry of p's current incarnation
// (RealTime mode): at expiry the peer is cut from its cluster and rejoins
// with its next incarnation identifier. The typed event carries the
// peer's registry slot; releasePeer cancels it, so a fired expiry always
// finds its peer live.
func (n *Network) scheduleExpiry(p *Peer) {
	expiry := p.ExpiresAt(n.cfg.Lifetime)
	if expiry < n.engine.Now() {
		expiry = n.engine.Now()
	}
	id, err := n.engine.ScheduleAt(expiry, n.expiryKind, uint64(p.slot))
	if err != nil {
		if n.asyncErr == nil {
			n.asyncErr = err
		}
		return
	}
	p.expiry = id
}

// handleExpiry is the des handler behind scheduleExpiry.
func (n *Network) handleExpiry(now float64, payload uint64) {
	p := n.peers[payload]
	if p == nil {
		// Unreachable: releasePeer cancels the pending expiry before
		// freeing the slot. Kept as a guard against future reorderings.
		return
	}
	p.expiry = 0
	if err := n.expirePeer(p); err != nil && n.asyncErr == nil {
		// The engine has no error channel; surface at the next Run.
		n.asyncErr = err
	}
}

// expirePeer enforces Property 1: the peer's identifier is no longer
// valid for its cluster, so its neighbors cut the connection; the peer
// refreshes its incarnation and rejoins at the matching cluster.
func (n *Network) expirePeer(p *Peer) error {
	// Route by p.id, not p.ID(): a pending bootstrap peer holds its
	// bootstrap cluster's label there, and Advance replaces the
	// identifier right after, so deriving it here would be thrown away.
	// That cluster has not split since (a split reads every member's
	// ID) and merges only shorten labels, so the label still leads to
	// the peer's cluster.
	cl, err := n.findCluster(p.id)
	if err != nil {
		return err
	}
	if role, _ := cl.indexOf(p); role == "" {
		// The peer already left (e.g. natural churn); nothing to cut.
		return nil
	}
	n.metrics.ExpiryLeaves++
	if err := n.processDeparture(cl, p); err != nil {
		return err
	}
	p.Advance()
	accepted, err := n.joinPeer(p, false)
	if err != nil {
		return err
	}
	if !accepted {
		// Rule 2 discarded the rejoin: the peer leaves the overlay.
		n.releasePeer(p)
	}
	return nil
}

// Metrics returns the activity counters.
func (n *Network) Metrics() Metrics { return n.metrics }

// Config returns the effective configuration.
func (n *Network) Config() Config { return n.cfg }

// Now returns the simulated time.
func (n *Network) Now() float64 { return n.engine.Now() }

// Snapshot summarizes the current overlay state.
func (n *Network) Snapshot() Snapshot {
	s := Snapshot{Time: n.engine.Now(), Clusters: len(n.clusters)}
	quorum := n.cfg.Params.Quorum()
	s.MinLabelBits = hypercube.MaxLabelBits + 1
	for _, cl := range n.clusters {
		if cl.Polluted(quorum) {
			s.PollutedClusters++
		}
		s.Peers += cl.Size()
		s.MaliciousPeers += cl.MaliciousCore() + cl.MaliciousSpare()
		if l := cl.Label.Length(); l < s.MinLabelBits {
			s.MinLabelBits = l
		}
		if l := cl.Label.Length(); l > s.MaxLabelBits {
			s.MaxLabelBits = l
		}
	}
	if s.Clusters == 0 {
		s.MinLabelBits = 0
	}
	if s.Clusters > 0 {
		s.PollutedFraction = float64(s.PollutedClusters) / float64(s.Clusters)
	}
	return s
}

// Clusters returns the clusters sorted by label for deterministic
// inspection. The returned slice is fresh; the clusters are live.
func (n *Network) Clusters() []*Cluster {
	out := append([]*Cluster(nil), n.clusters...)
	sort.Slice(out, func(i, j int) bool { return out[i].Label.String() < out[j].Label.String() })
	return out
}

// addCluster interns the cluster at the end of the dense slice.
func (n *Network) addCluster(cl *Cluster) {
	cl.slot = int32(len(n.clusters))
	n.clusters = append(n.clusters, cl)
	n.byLabel[cl.Label] = cl.slot
	n.depthCount[cl.Label.Length()]++
}

// removeCluster swap-deletes the cluster from the dense slice in O(1).
func (n *Network) removeCluster(cl *Cluster) {
	last := len(n.clusters) - 1
	moved := n.clusters[last]
	n.clusters[cl.slot] = moved
	moved.slot = cl.slot
	n.clusters[last] = nil
	n.clusters = n.clusters[:last]
	delete(n.byLabel, cl.Label)
	n.depthCount[cl.Label.Length()]--
	if moved != cl {
		n.byLabel[moved.Label] = moved.slot
	}
}
