package hypercube

import (
	"crypto/sha256"
	"math/rand"
	"testing"
	"testing/quick"

	"targetedattacks/internal/identity"
)

func mustLabel(t *testing.T, s string) Label {
	t.Helper()
	l, err := LabelFromString(s)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func idFromBytes(t *testing.T, m int, bs ...byte) identity.ID {
	t.Helper()
	var digest [32]byte
	copy(digest[:], bs)
	id, err := identity.NewID(digest, m)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestLabelParseAndString(t *testing.T) {
	for _, s := range []string{"", "0", "1", "0110", "111000111"} {
		l := mustLabel(t, s)
		want := s
		if s == "" {
			want = "ε"
		}
		if l.String() != want {
			t.Errorf("round trip %q = %q", s, l.String())
		}
		if l.Length() != len(s) {
			t.Errorf("length of %q = %d", s, l.Length())
		}
	}
	if _, err := LabelFromString("012"); err == nil {
		t.Error("bad rune: want error")
	}
	if _, err := LabelFromString(string(make([]byte, 65))); err == nil {
		t.Error("too long: want error")
	}
}

func TestChildParentSibling(t *testing.T) {
	root := RootLabel()
	c0, err := root.Child(0)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := root.Child(1)
	if err != nil {
		t.Fatal(err)
	}
	if c0.String() != "0" || c1.String() != "1" {
		t.Errorf("children = %v, %v", c0, c1)
	}
	if _, err := root.Child(2); err == nil {
		t.Error("bad child bit: want error")
	}
	p, err := c0.Parent()
	if err != nil {
		t.Fatal(err)
	}
	if !p.Equal(root) {
		t.Errorf("parent of %v = %v, want root", c0, p)
	}
	s, err := c0.Sibling()
	if err != nil {
		t.Fatal(err)
	}
	if !s.Equal(c1) {
		t.Errorf("sibling of %v = %v, want %v", c0, s, c1)
	}
	if _, err := root.Parent(); err == nil {
		t.Error("root parent: want error")
	}
	if _, err := root.Sibling(); err == nil {
		t.Error("root sibling: want error")
	}
}

func TestChildParentRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := RootLabel()
		for i := 0; i < 1+rng.Intn(60); i++ {
			c, err := l.Child(rng.Intn(2))
			if err != nil {
				return false
			}
			p, err := c.Parent()
			if err != nil || !p.Equal(l) {
				return false
			}
			sib, err := c.Sibling()
			if err != nil {
				return false
			}
			back, err := sib.Sibling()
			if err != nil || !back.Equal(c) {
				return false
			}
			l = c
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBitAndFlip(t *testing.T) {
	l := mustLabel(t, "0110")
	wantBits := []int{0, 1, 1, 0}
	for i, w := range wantBits {
		got, err := l.Bit(i)
		if err != nil {
			t.Fatal(err)
		}
		if got != w {
			t.Errorf("bit %d = %d, want %d", i, got, w)
		}
	}
	if _, err := l.Bit(4); err == nil {
		t.Error("out of range: want error")
	}
	f, err := l.FlipBit(0)
	if err != nil {
		t.Fatal(err)
	}
	if f.String() != "1110" {
		t.Errorf("flip(0) = %v", f)
	}
	if _, err := l.FlipBit(9); err == nil {
		t.Error("flip out of range: want error")
	}
}

func TestIsPrefixOf(t *testing.T) {
	tests := []struct {
		a, b string
		want bool
	}{
		{"", "0110", true},
		{"01", "0110", true},
		{"0110", "0110", true},
		{"1", "0110", false},
		{"01101", "0110", false},
	}
	for _, tt := range tests {
		a, b := mustLabel(t, tt.a), mustLabel(t, tt.b)
		if got := a.IsPrefixOf(b); got != tt.want {
			t.Errorf("%q.IsPrefixOf(%q) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestMatchesAndDistance(t *testing.T) {
	// id with leading byte 0110 0000.
	id := idFromBytes(t, 128, 0b0110_0000)
	if !mustLabel(t, "0110").Matches(id) {
		t.Error("0110 must match id 0110…")
	}
	if mustLabel(t, "0111").Matches(id) {
		t.Error("0111 must not match id 0110…")
	}
	if d := Distance(id, mustLabel(t, "0110")); d != 0 {
		t.Errorf("distance to matching label = %d, want 0", d)
	}
	// First mismatch at bit 3 of a 4-bit label: distance 4−3 = 1.
	if d := Distance(id, mustLabel(t, "0111")); d != 1 {
		t.Errorf("distance = %d, want 1", d)
	}
	// First mismatch at bit 0: distance = label length.
	if d := Distance(id, mustLabel(t, "1110")); d != 4 {
		t.Errorf("distance = %d, want 4", d)
	}
}

func TestMatchesWidthGuard(t *testing.T) {
	id := idFromBytes(t, 8, 0b0110_0000)
	long := mustLabel(t, "011000001")
	if long.Matches(id) {
		t.Error("label longer than id width must not match")
	}
}

func TestNextHopAndRoute(t *testing.T) {
	id := idFromBytes(t, 128, 0b0110_0000)
	// From 1010, greedy routing corrects bit 0 first: 0010, then bit 1:
	// 0110 which matches.
	path, err := RoutePath(mustLabel(t, "1010"), id)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"1010", "0010", "0110"}
	if len(path) != len(want) {
		t.Fatalf("path = %v", path)
	}
	for i := range want {
		if path[i].String() != want[i] {
			t.Errorf("path[%d] = %v, want %v", i, path[i], want[i])
		}
	}
	// Already matching: single-entry path.
	path, err = RoutePath(mustLabel(t, "0110"), id)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 1 {
		t.Errorf("path from matching label = %v", path)
	}
}

func TestNextHopErrors(t *testing.T) {
	id := idFromBytes(t, 4, 0b0110_0000)
	if _, _, err := NextHop(mustLabel(t, "01100"), id); err == nil {
		t.Error("label longer than id: want error")
	}
}

// TestRouteConvergesProperty: from any start label of any length ≤ 16,
// greedy routing reaches a matching label within Length hops.
func TestRouteConvergesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		digest := sha256.Sum256([]byte{byte(seed), byte(seed >> 8)})
		id, err := identity.NewID(digest, 128)
		if err != nil {
			return false
		}
		l := RootLabel()
		n := rng.Intn(16)
		for i := 0; i < n; i++ {
			l, err = l.Child(rng.Intn(2))
			if err != nil {
				return false
			}
		}
		path, err := RoutePath(l, id)
		if err != nil {
			return false
		}
		if len(path) > n+1 {
			return false
		}
		return path[len(path)-1].Matches(id)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDimensions(t *testing.T) {
	l := mustLabel(t, "010")
	dims := l.Dimensions()
	if len(dims) != 3 {
		t.Fatalf("dimensions = %v", dims)
	}
	want := []string{"110", "000", "011"}
	for i := range want {
		if dims[i].String() != want[i] {
			t.Errorf("dims[%d] = %v, want %v", i, dims[i], want[i])
		}
	}
	if len(RootLabel().Dimensions()) != 0 {
		t.Error("root has no dimensions")
	}
}

func TestChildAtMaxDepth(t *testing.T) {
	l := RootLabel()
	var err error
	for i := 0; i < MaxLabelBits; i++ {
		l, err = l.Child(1)
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.Child(0); err == nil {
		t.Error("64-bit label child: want error")
	}
}

// TestMatchesWordEqualsBitLoop checks the word-level Matches against the
// per-bit definition for every label length 0…64 and ID width 1…256,
// on labels cut from the identifier itself with an occasional flipped
// bit, so both outcomes occur at every length.
func TestMatchesWordEqualsBitLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for m := 1; m <= identity.MaxIDBits; m++ {
		var digest [32]byte
		rng.Read(digest[:])
		id, err := identity.NewID(digest, m)
		if err != nil {
			t.Fatal(err)
		}
		for length := 0; length <= MaxLabelBits; length++ {
			l := RootLabel()
			for i := 0; i < length; i++ {
				bit := int(digest[i/8]>>(7-uint(i%8))) & 1
				if rng.Intn(4*length) == 0 {
					bit ^= 1
				}
				if l, err = l.Child(bit); err != nil {
					t.Fatal(err)
				}
			}
			want := length <= m
			for i := 0; want && i < length; i++ {
				lb, _ := l.Bit(i)
				ib, _ := id.Bit(i)
				want = lb == ib
			}
			if got := l.Matches(id); got != want {
				t.Fatalf("label %v Matches(m=%d id %v) = %v, want %v", l, m, id, got, want)
			}
		}
	}
}

// TestPrefixLabelEqualsChildWalk checks PrefixLabel against the label
// built one identifier bit at a time, for every length up to the
// identifier width or 64, at widths that cut bytes and words.
func TestPrefixLabelEqualsChildWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	for _, m := range []int{1, 7, 8, 13, 61, 64, 65, 128, 256} {
		var digest [32]byte
		rng.Read(digest[:])
		id, err := identity.NewID(digest, m)
		if err != nil {
			t.Fatal(err)
		}
		want := RootLabel()
		for n := 0; n <= min(m, MaxLabelBits); n++ {
			if got := PrefixLabel(id, n); !got.Equal(want) || !got.Matches(id) {
				t.Fatalf("PrefixLabel(m=%d id %v, %d) = %v, want %v", m, id, n, got, want)
			}
			if n == min(m, MaxLabelBits) {
				break
			}
			bit, err := id.Bit(n)
			if err != nil {
				t.Fatal(err)
			}
			if want, err = want.Child(bit); err != nil {
				t.Fatal(err)
			}
		}
	}
}
