// Package overlaynet is the full system simulator of the cluster-based
// overlay the DSN 2011 paper models: peers carry CA-issued certificates
// with expiring incarnation identifiers (internal/identity), clusters are
// hypercube prefixes (internal/hypercube) with core/spare role
// separation, the robust join/leave/split/merge operations of Section IV
// run against live churn (internal/churn), the randomized core
// maintenance can execute a real Byzantine agreement
// (internal/consensus), and a colluding adversary plays the targeted
// attack strategy of Section V (internal/adversary).
//
// Two churn-fidelity modes are supported: ModelFidelity mirrors the
// analytic chain event-for-event (identifier expiry folded into leave
// events through the survival probability d), enabling apples-to-apples
// validation against Theorem 2; RealTime schedules explicit incarnation
// expiries on the discrete-event engine (internal/des).
//
// The operation path is built for million-peer populations: clusters
// live in a dense slice keyed by interned hypercube.Label values (no
// string hashing per event), peer records are pooled and slot-indexed
// so identifier-expiry timers carry an integer payload through the
// typed des event table, and FastIdentity mode derives identifiers from
// a seeded hash instead of generating an ed25519 certificate per peer.
//
// With TrackAbsorption a single-cluster overlay doubles as a sampler of
// the paper's absorbing chain: chain age ticks on churn events targeting
// the cluster, and StopOnAbsorption ends the run at the first s = 0
// merge or s = ∆ split, classified safe or polluted — the statistics
// sweep.EvaluateSim cross-validates against core.Analyze.
package overlaynet

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"targetedattacks/internal/des"
	"targetedattacks/internal/identity"
)

// Peer is one participant of the overlay.
type Peer struct {
	// Seq is the peer's unique registration number (diagnostics).
	Seq int64
	// Identity holds the certificate and signing key; nil in
	// FastIdentity mode, where identifiers derive from a seeded hash.
	Identity *identity.Identity
	// Incarnation is the incarnation number of the current identifier.
	Incarnation int64

	// id is the current identifier, read through ID. While pending, it
	// holds only the leading prefixBits bits the bootstrap forced.
	id     identity.ID
	t0     float64     // certificate creation time
	seed   int64       // churn seed of the FastIdentity hash chain root
	expiry des.EventID // pending incarnation-expiry event (RealTime), 0 if none
	slot   int32       // index in the network's peer registry

	// Malicious marks peers controlled by the adversary.
	Malicious bool

	// pending defers the identifier to its first read: a run never
	// routes, splits or expires most bootstrap peers.
	pending    bool
	prefixBits uint8
}

// Name returns the peer's unique diagnostic name.
func (p *Peer) Name() string { return fmt.Sprintf("peer-%d", p.Seq) }

// fastInitialID derives a FastIdentity peer's id0 from its churn seed:
// a uniform m-bit identifier without the ed25519 certificate walk.
func fastInitialID(seed int64, m int) identity.ID {
	var buf [16]byte
	binary.BigEndian.PutUint64(buf[:8], uint64(seed))
	copy(buf[8:], "fast-id0")
	id, err := identity.NewID(sha256.Sum256(buf[:]), m)
	if err != nil {
		// m is the width of an identifier already built, so it is valid.
		panic(fmt.Sprintf("overlaynet: fastInitialID: %v", err))
	}
	return id
}

// initialID returns id0, the root of the peer's Property 1 hash chain.
func (p *Peer) initialID() identity.ID {
	if p.Identity != nil {
		return p.Identity.InitialID()
	}
	return fastInitialID(p.seed, p.id.Bits())
}

// ID returns the identifier of the peer's current incarnation, derived
// on first read: the hash chain value for the incarnation, with the
// leading prefixBits bits of a bootstrap peer forced to its cluster's
// label.
func (p *Peer) ID() identity.ID {
	if p.pending {
		p.id = identity.DeriveID(p.initialID(), p.Incarnation).WithPrefix(p.id.Prefix64(), int(p.prefixBits))
		p.pending = false
	}
	return p.id
}

// ExpiresAt returns when the peer's current incarnation expires.
func (p *Peer) ExpiresAt(lifetime float64) float64 {
	return identity.ExpiryTime(p.t0, lifetime, p.Incarnation)
}

// Advance moves the peer to its next incarnation — the paper's Property 1
// rejoin rule: "the kth incarnation of a peer p expires when p's local
// clock reads t0 + kL; at this time p must rejoin the system using its
// (k+1)th incarnation". The incarnation number cannot be recomputed from
// the clock at the expiry instant itself because ⌈(t−t0)/L⌉ still yields
// k on the boundary.
func (p *Peer) Advance() {
	p.Incarnation++
	p.id = identity.DeriveID(p.initialID(), p.Incarnation)
	p.pending = false
}

// String renders the peer for diagnostics.
func (p *Peer) String() string {
	role := "honest"
	if p.Malicious {
		role = "malicious"
	}
	return fmt.Sprintf("%s(%s,k=%d)", p.Name(), role, p.Incarnation)
}
