// Package hypercube implements the structured-graph substrate of the
// cluster-based overlay (Section III-A of the DSN 2011 paper, after
// PeerCube): clusters are uniquely labelled with bit-string prefixes of
// the identifier space, a peer belongs to the unique cluster whose label
// prefixes its identifier, split/merge move one bit down/up the prefix
// tree, and routing greedily corrects the first differing dimension as on
// a hypercube.
package hypercube

import (
	"fmt"
	"strings"

	"targetedattacks/internal/identity"
)

// MaxLabelBits bounds label lengths (prefixes are stored in a uint64).
const MaxLabelBits = 64

// Label is a cluster label: a prefix of the identifier space. Bits are
// stored most-significant-first. The zero value is the root (empty) label.
type Label struct {
	bits   uint64
	length int
}

// RootLabel returns the empty prefix, the label of a single-cluster
// overlay.
func RootLabel() Label { return Label{} }

// LabelFromString parses a label like "0110". The empty string is the
// root label.
func LabelFromString(s string) (Label, error) {
	if len(s) > MaxLabelBits {
		return Label{}, fmt.Errorf("hypercube: label %q longer than %d bits", s, MaxLabelBits)
	}
	l := Label{length: len(s)}
	for i, c := range s {
		switch c {
		case '0':
		case '1':
			l.bits |= 1 << (MaxLabelBits - 1 - i)
		default:
			return Label{}, fmt.Errorf("hypercube: label %q has non-binary rune %q", s, c)
		}
	}
	return l, nil
}

// Length returns the number of bits in the prefix.
func (l Label) Length() int { return l.length }

// Prefix64 returns the label's bits left-aligned in a word, most
// significant first; bits beyond Length are zero.
func (l Label) Prefix64() uint64 { return l.bits }

// Bit returns bit i (0 = most significant).
func (l Label) Bit(i int) (int, error) {
	if i < 0 || i >= l.length {
		return 0, fmt.Errorf("hypercube: bit %d outside [0,%d)", i, l.length)
	}
	return int(l.bits>>(MaxLabelBits-1-i)) & 1, nil
}

// String renders the label as a bit string; the root renders as "ε".
func (l Label) String() string {
	if l.length == 0 {
		return "ε"
	}
	var b strings.Builder
	for i := 0; i < l.length; i++ {
		bit, _ := l.Bit(i)
		b.WriteByte(byte('0' + bit))
	}
	return b.String()
}

// Equal reports label equality.
func (l Label) Equal(other Label) bool {
	return l.length == other.length && l.bits == other.bits
}

// Child appends bit b (0 or 1), the label of one half after a split.
func (l Label) Child(b int) (Label, error) {
	if b != 0 && b != 1 {
		return Label{}, fmt.Errorf("hypercube: child bit must be 0 or 1, got %d", b)
	}
	if l.length >= MaxLabelBits {
		return Label{}, fmt.Errorf("hypercube: label already %d bits", MaxLabelBits)
	}
	c := Label{bits: l.bits, length: l.length + 1}
	if b == 1 {
		c.bits |= 1 << (MaxLabelBits - 1 - l.length)
	}
	return c, nil
}

// Parent drops the last bit, the label after a merge with the sibling.
func (l Label) Parent() (Label, error) {
	if l.length == 0 {
		return Label{}, fmt.Errorf("hypercube: root label has no parent")
	}
	p := Label{length: l.length - 1}
	p.bits = l.bits &^ (1 << (MaxLabelBits - 1 - (l.length - 1)))
	return p, nil
}

// Sibling flips the last bit: the closest cluster, with which a merge
// happens.
func (l Label) Sibling() (Label, error) {
	if l.length == 0 {
		return Label{}, fmt.Errorf("hypercube: root label has no sibling")
	}
	s := l
	s.bits ^= 1 << (MaxLabelBits - 1 - (l.length - 1))
	return s, nil
}

// FlipBit returns the hypercube neighbor label along dimension i.
func (l Label) FlipBit(i int) (Label, error) {
	if i < 0 || i >= l.length {
		return Label{}, fmt.Errorf("hypercube: dimension %d outside [0,%d)", i, l.length)
	}
	f := l
	f.bits ^= 1 << (MaxLabelBits - 1 - i)
	return f, nil
}

// IsPrefixOf reports whether l prefixes other.
func (l Label) IsPrefixOf(other Label) bool {
	if l.length > other.length {
		return false
	}
	if l.length == 0 {
		return true
	}
	mask := ^uint64(0) << (MaxLabelBits - l.length)
	return (l.bits^other.bits)&mask == 0
}

// Matches reports whether the label prefixes identifier id — the paper's
// "idq matches the label of D according to distance D" (Property 1).
func (l Label) Matches(id identity.ID) bool {
	if l.length > id.Bits() {
		return false
	}
	mask := ^uint64(0) << (MaxLabelBits - l.length) // 0 for the root
	return (l.bits^id.Prefix64())&mask == 0
}

// PrefixLabel returns the label made of id's leading n bits, the one
// label of length n that id Matches. It requires
// 0 ≤ n ≤ min(MaxLabelBits, id.Bits()).
func PrefixLabel(id identity.ID, n int) Label {
	return Label{bits: id.Prefix64() &^ (^uint64(0) >> n), length: n}
}

// Distance is the paper's distance D between an identifier and a cluster
// label: the number of label bits not matched by the identifier's prefix
// (0 when the peer is valid for the cluster). Among a set of clusters,
// the *closest* is the one with the longest matching prefix.
func Distance(id identity.ID, l Label) int {
	limit := l.length
	if id.Bits() < limit {
		limit = id.Bits()
	}
	for i := 0; i < limit; i++ {
		lb, _ := l.Bit(i)
		ib, _ := id.Bit(i)
		if lb != ib {
			return l.length - i
		}
	}
	return l.length - limit
}

// NextHop returns the greedy hypercube hop from the current cluster
// toward target: the neighbor label with the first differing dimension
// corrected. ok is false when the current label already matches the
// target (routing terminates here).
func NextHop(current Label, target identity.ID) (Label, bool, error) {
	if current.length > target.Bits() {
		return Label{}, false, fmt.Errorf("hypercube: label %v longer than id width %d", current, target.Bits())
	}
	for i := 0; i < current.length; i++ {
		lb, _ := current.Bit(i)
		ib, err := target.Bit(i)
		if err != nil {
			return Label{}, false, err
		}
		if lb != ib {
			hop, err := current.FlipBit(i)
			if err != nil {
				return Label{}, false, err
			}
			return hop, true, nil
		}
	}
	return current, false, nil
}

// RoutePath returns the greedy path of labels from `from` toward the
// cluster matching target, assuming every intermediate label exists with
// the same length (a regular hypercube). The path includes the endpoints
// and has at most Length()+1 entries.
func RoutePath(from Label, target identity.ID) ([]Label, error) {
	path := []Label{from}
	current := from
	for hops := 0; hops <= from.length; hops++ {
		next, more, err := NextHop(current, target)
		if err != nil {
			return nil, err
		}
		if !more {
			return path, nil
		}
		current = next
		path = append(path, current)
	}
	return nil, fmt.Errorf("hypercube: routing from %v did not converge", from)
}

// Dimensions returns the neighbor labels of l along every dimension (the
// constrained routing table of a regular hypercube node).
func (l Label) Dimensions() []Label {
	out := make([]Label, 0, l.length)
	for i := 0; i < l.length; i++ {
		n, err := l.FlipBit(i)
		if err == nil {
			out = append(out, n)
		}
	}
	return out
}
