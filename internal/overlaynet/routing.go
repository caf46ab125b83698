package overlaynet

import (
	"fmt"

	"targetedattacks/internal/hypercube"
	"targetedattacks/internal/identity"
)

// LookupResult reports one routed lookup.
type LookupResult struct {
	// Path is the sequence of cluster labels traversed.
	Path []hypercube.Label
	// Delivered is true when the lookup reached the cluster responsible
	// for the key and that cluster answered honestly.
	Delivered bool
	// DropLabel is the label of the polluted cluster that dropped or
	// misrouted the request, when Delivered is false.
	DropLabel hypercube.Label
}

// Lookup routes a request for key from the cluster responsible for
// `from` toward the cluster responsible for key, using greedy prefix
// routing over the live topology. Each intermediate polluted cluster
// drops the request (the targeted-attack payoff of Section I: polluted
// cores re-route or drop messages); the lookup is Delivered only if every
// hop, and the responsible cluster itself, is safe.
//
// Because splits and merges leave the label set a prefix partition rather
// than a regular hypercube, each greedy hop is resolved to the live
// cluster matching the ideal next label.
func (n *Network) Lookup(from, key identity.ID) (*LookupResult, error) {
	cur, err := n.findCluster(from)
	if err != nil {
		return nil, err
	}
	quorum := n.cfg.Params.Quorum()
	res := &LookupResult{Path: []hypercube.Label{cur.Label}}
	// The greedy walk strictly increases the matched prefix length each
	// hop, so it terminates within MaxLabelBits hops.
	for hop := 0; hop <= hypercube.MaxLabelBits; hop++ {
		if cur.Polluted(quorum) {
			res.DropLabel = cur.Label
			return res, nil
		}
		if cur.Label.Matches(key) {
			res.Delivered = true
			return res, nil
		}
		next, more, err := hypercube.NextHop(cur.Label, key)
		if err != nil {
			return nil, err
		}
		if !more {
			// Label matches the key prefix but Matches failed: the key is
			// shorter than the label. Treat as delivered to this cluster.
			res.Delivered = true
			return res, nil
		}
		// Resolve the ideal neighbor label against the live partition:
		// the responsible cluster is the one whose label prefixes the
		// key-corrected identifier.
		cur, err = n.findCluster(probeID(next, key))
		if err != nil {
			return nil, err
		}
		res.Path = append(res.Path, cur.Label)
	}
	return nil, fmt.Errorf("overlaynet: lookup did not converge from %v", res.Path[0])
}

// probeID builds an identifier that starts with label's bits and
// continues with key's bits, so findCluster resolves the live cluster
// covering the ideal next-hop region while still converging toward key.
func probeID(label hypercube.Label, key identity.ID) identity.ID {
	return key.WithPrefix(label.Prefix64(), label.Length())
}

// LookupRedundant performs redundant routing (the defense of Castro et
// al. that the paper cites as complementary to induced churn): the
// request is launched from the source and from redundancy−1 additional
// random entry clusters; it succeeds if any copy is delivered. The
// responsible cluster itself remains a single point of failure — exactly
// the residual the paper's fault-containment bound (p(A^m_P) < 8%)
// addresses.
func (n *Network) LookupRedundant(from, key identity.ID, redundancy int) (bool, error) {
	if redundancy < 1 {
		return false, fmt.Errorf("overlaynet: redundancy must be ≥ 1, got %d", redundancy)
	}
	res, err := n.Lookup(from, key)
	if err != nil {
		return false, err
	}
	if res.Delivered {
		return true, nil
	}
	for i := 1; i < redundancy; i++ {
		alt, err := n.randomID()
		if err != nil {
			return false, err
		}
		res, err := n.Lookup(alt, key)
		if err != nil {
			return false, err
		}
		if res.Delivered {
			return true, nil
		}
	}
	return false, nil
}

// LookupAvailability measures the fraction of successful lookups between
// `trials` random (source, key) pairs drawn over the identifier space.
func (n *Network) LookupAvailability(trials int) (float64, error) {
	if trials < 1 {
		return 0, fmt.Errorf("overlaynet: trials must be ≥ 1, got %d", trials)
	}
	ok := 0
	for i := 0; i < trials; i++ {
		from, err := n.randomID()
		if err != nil {
			return 0, err
		}
		key, err := n.randomID()
		if err != nil {
			return 0, err
		}
		res, err := n.Lookup(from, key)
		if err != nil {
			return 0, err
		}
		if res.Delivered {
			ok++
		}
	}
	return float64(ok) / float64(trials), nil
}

// randomID draws a uniform identifier.
func (n *Network) randomID() (identity.ID, error) {
	var digest [32]byte
	for i := range digest {
		digest[i] = byte(n.rng.Intn(256))
	}
	return identity.NewID(digest, n.cfg.IDBits)
}

// RandomID draws a uniform identifier from the overlay's id space, for
// workload generators that need lookup sources and keys.
func (n *Network) RandomID() (identity.ID, error) {
	return n.randomID()
}
