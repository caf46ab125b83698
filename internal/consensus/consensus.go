// Package consensus implements the Byzantine-tolerant agreement substrate
// that Section IV of the DSN 2011 paper assumes inside each cluster core:
// the randomized choices of the leave-maintenance and split operations
// are "handled through a Byzantine-tolerant consensus run among core
// members".
//
// The implementation is an authenticated synchronous protocol:
//
//   - Broadcast is Dolev-Strong broadcast with signature chains: the
//     sender signs its value; over f+1 rounds every honest relay that
//     extracts a value with r distinct valid signatures appends its own
//     and forwards. With signatures it tolerates any number of Byzantine
//     relays; an equivocating sender yields the default value ⊥ at every
//     honest node, consistently.
//
//   - AgreeOnSeed runs one broadcast per core member carrying a random
//     contribution and hashes the agreed vector into a shared 256-bit
//     seed. All honest members obtain the same seed; with at least one
//     honest contribution the adversary cannot fix it in advance
//     (synchronous, non-rushing model).
//
//   - SelectIndices expands a seed into the uniform random k-subset used
//     to rebuild core/spare sets (protocol_k maintenance and split).
package consensus

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"

	"targetedattacks/internal/identity"
)

// Behavior selects the failure mode of a Byzantine member.
type Behavior int

// Byzantine behaviors exercised by the simulator and tests.
const (
	// Honest follows the protocol.
	Honest Behavior = iota
	// Silent sends nothing.
	Silent
	// Equivocate signs and sends conflicting values to different peers
	// (sender role); as a relay it behaves like Silent.
	Equivocate
	// DropRelay participates as a sender but never relays others' values.
	DropRelay
)

// Member is one core-set participant in an agreement instance.
type Member struct {
	// Index is the member's position in the core set.
	Index int
	// Identity signs protocol messages.
	Identity *identity.Identity
	// Behavior is Honest for correct members.
	Behavior Behavior
}

// signedValue is a value with its accumulated signature chain.
type signedValue struct {
	value   []byte
	signers []int    // distinct member indices, sender first
	sigs    [][]byte // sigs[i] by signers[i] over message(value, sender)
}

// message serializes the signed payload: sender index plus value.
func message(senderIndex int, value []byte) []byte {
	var buf bytes.Buffer
	var idx [8]byte
	binary.BigEndian.PutUint64(idx[:], uint64(senderIndex))
	buf.Write(idx[:])
	buf.Write(value)
	return buf.Bytes()
}

// Default is the ⊥ value every honest node outputs when the sender is
// detected faulty.
var Default = []byte{}

// Broadcast runs Dolev-Strong broadcast from members[senderIdx] with the
// given value among all members, tolerating up to f Byzantine members
// (the protocol runs f+1 rounds). It returns the decided value at each
// honest member, indexed by member position; Byzantine members' outputs
// are not defined and left nil.
func Broadcast(members []*Member, senderIdx int, value []byte, f int) (map[int][]byte, error) {
	if err := validateMembers(members); err != nil {
		return nil, err
	}
	if senderIdx < 0 || senderIdx >= len(members) {
		return nil, fmt.Errorf("consensus: sender index %d outside [0,%d)", senderIdx, len(members))
	}
	if f < 0 || f >= len(members) {
		return nil, fmt.Errorf("consensus: f=%d outside [0,%d)", f, len(members))
	}
	sender := members[senderIdx]
	// extracted[i] holds the set of distinct values member i accepted.
	extracted := make([]map[string]bool, len(members))
	for i := range extracted {
		extracted[i] = make(map[string]bool)
	}
	// inbox[i] are chains delivered to member i for the next round.
	inbox := make([][]signedValue, len(members))

	// Round 0: the sender signs and sends.
	switch sender.Behavior {
	case Silent, DropRelay:
		// DropRelay still sends its own value (it drops only relays).
		if sender.Behavior == Silent {
			break
		}
		fallthrough
	case Honest:
		sv := signedValue{
			value:   append([]byte(nil), value...),
			signers: []int{senderIdx},
			sigs:    [][]byte{sender.Identity.Sign(message(senderIdx, value))},
		}
		for i := range members {
			inbox[i] = append(inbox[i], sv)
		}
	case Equivocate:
		alt := append(append([]byte(nil), value...), 0xFF)
		svA := signedValue{
			value:   append([]byte(nil), value...),
			signers: []int{senderIdx},
			sigs:    [][]byte{sender.Identity.Sign(message(senderIdx, value))},
		}
		svB := signedValue{
			value:   alt,
			signers: []int{senderIdx},
			sigs:    [][]byte{sender.Identity.Sign(message(senderIdx, alt))},
		}
		for i := range members {
			if i%2 == 0 {
				inbox[i] = append(inbox[i], svA)
			} else {
				inbox[i] = append(inbox[i], svB)
			}
		}
	}

	// Rounds 1..f+1: honest members extract values carried by chains with
	// ≥ round distinct valid signatures (sender first) and relay them
	// once with their own signature appended.
	for round := 1; round <= f+1; round++ {
		outbox := make([][]signedValue, len(members))
		for i, m := range members {
			msgs := inbox[i]
			inbox[i] = nil
			if m.Behavior != Honest {
				continue // Byzantine relays drop (worst case for liveness)
			}
			for _, sv := range msgs {
				if !validChain(members, senderIdx, sv, round) {
					continue
				}
				key := string(sv.value)
				if extracted[i][key] {
					continue
				}
				extracted[i][key] = true
				if len(extracted[i]) > 2 {
					continue // already provably faulty; no need to relay more
				}
				// Relay with own signature appended.
				if round <= f && !contains(sv.signers, i) {
					relayed := signedValue{
						value:   sv.value,
						signers: append(append([]int(nil), sv.signers...), i),
						sigs:    append(append([][]byte(nil), sv.sigs...), m.Identity.Sign(message(senderIdx, sv.value))),
					}
					for j := range members {
						outbox[j] = append(outbox[j], relayed)
					}
				}
			}
		}
		inbox = outbox
	}

	// Decision: exactly one extracted value → that value; otherwise ⊥.
	out := make(map[int][]byte, len(members))
	for i, m := range members {
		if m.Behavior != Honest {
			continue
		}
		if len(extracted[i]) == 1 {
			for key := range extracted[i] {
				out[i] = []byte(key)
			}
			continue
		}
		out[i] = Default
	}
	return out, nil
}

// validChain checks a signature chain: distinct signers, first the
// sender, every signature valid, and at least `round` signatures.
func validChain(members []*Member, senderIdx int, sv signedValue, round int) bool {
	if len(sv.signers) != len(sv.sigs) || len(sv.signers) < round {
		return false
	}
	if sv.signers[0] != senderIdx {
		return false
	}
	seen := make(map[int]bool, len(sv.signers))
	msg := message(senderIdx, sv.value)
	for i, signer := range sv.signers {
		if signer < 0 || signer >= len(members) || seen[signer] {
			return false
		}
		seen[signer] = true
		cert := members[signer].Identity.Certificate()
		if !ed25519.Verify(cert.PublicKey, msg, sv.sigs[i]) {
			return false
		}
	}
	return true
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func validateMembers(members []*Member) error {
	if len(members) == 0 {
		return fmt.Errorf("consensus: empty member set")
	}
	for i, m := range members {
		if m == nil || m.Identity == nil {
			return fmt.Errorf("consensus: member %d missing identity", i)
		}
		if m.Index != i {
			return fmt.Errorf("consensus: member %d has index %d", i, m.Index)
		}
	}
	return nil
}

// AgreeOnSeed has every member broadcast a 8-byte contribution and hashes
// the agreed vector into a shared seed. contributions[i] is member i's
// input (Byzantine members may contribute anything). It returns the seed
// as computed by each honest member; the Byzantine-agreement property
// guarantees all returned seeds are identical whenever the Byzantine
// count is ≤ f.
func AgreeOnSeed(members []*Member, contributions [][]byte, f int) (map[int][32]byte, error) {
	if err := validateMembers(members); err != nil {
		return nil, err
	}
	if len(contributions) != len(members) {
		return nil, fmt.Errorf("consensus: %d contributions for %d members", len(contributions), len(members))
	}
	// agreed[i][s] is what member i decided for sender s.
	agreed := make([]map[int][]byte, len(members))
	for i := range agreed {
		agreed[i] = make(map[int][]byte)
	}
	for s := range members {
		out, err := Broadcast(members, s, contributions[s], f)
		if err != nil {
			return nil, err
		}
		for i, v := range out {
			agreed[i][s] = v
		}
	}
	seeds := make(map[int][32]byte, len(members))
	for i, m := range members {
		if m.Behavior != Honest {
			continue
		}
		var buf bytes.Buffer
		senders := make([]int, 0, len(agreed[i]))
		for s := range agreed[i] {
			senders = append(senders, s)
		}
		sort.Ints(senders)
		for _, s := range senders {
			var idx [8]byte
			binary.BigEndian.PutUint64(idx[:], uint64(s))
			buf.Write(idx[:])
			buf.Write(agreed[i][s])
		}
		seeds[i] = sha256.Sum256(buf.Bytes())
	}
	return seeds, nil
}

// SelectIndices expands an agreed seed into a uniform random k-subset of
// {0,…,n−1} (partial Fisher-Yates), the randomized choice used by the
// protocol_k core maintenance and the split operation.
//
// Its contract is bit-exact: starting from perm = 0…n−1, swap perm[i]
// with perm[i+rng.Intn(n−i)] for i < k, where
// rng = rand.New(rand.NewSource(int64(binary.BigEndian.Uint64(seed[:8])))),
// and return perm[:k] sorted. The swarm benchmark digests and the
// overlaynet stream pins depend on it. The draws come from lazySource,
// which skips math/rand's 607-word seeding; k = 0 and k = n draw
// nothing, since the generator is local and the set is then fixed.
func SelectIndices(seed [32]byte, n, k int) ([]int, error) {
	if n < 0 || k < 0 || k > n {
		return nil, fmt.Errorf("consensus: cannot select %d of %d", k, n)
	}
	if k == 0 {
		return []int{}, nil
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	if k == n {
		return perm, nil
	}
	src := newLazySource(int64(binary.BigEndian.Uint64(seed[:8])))
	for i := 0; i < k; i++ {
		j := i + src.intn(n-i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	out := perm[:k]
	sort.Ints(out)
	return out, nil
}
