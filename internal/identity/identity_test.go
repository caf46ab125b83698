package identity

import (
	"crypto/sha256"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// CurrentID returns idq = H(id0 × k) for the incarnation at time t with
// identifier lifetime L: the identifier a peer claims at time t.
func (idn *Identity) CurrentID(t, lifetime float64) (ID, int64, error) {
	k, err := Incarnation(t, idn.cert.CreatedAt, lifetime)
	if err != nil {
		return ID{}, 0, err
	}
	return DeriveID(idn.id0, k), k, nil
}

func newCA(t *testing.T) *CA {
	t.Helper()
	ca, err := NewCA("test-ca", 1)
	if err != nil {
		t.Fatal(err)
	}
	return ca
}

func newIdentity(t *testing.T, ca *CA, subject string, t0 float64, seed int64) *Identity {
	t.Helper()
	idn, err := NewIdentity(ca, subject, t0, 128, seed)
	if err != nil {
		t.Fatal(err)
	}
	return idn
}

func TestNewIDValidation(t *testing.T) {
	var digest [32]byte
	if _, err := NewID(digest, 0); err == nil {
		t.Error("m=0: want error")
	}
	if _, err := NewID(digest, 257); err == nil {
		t.Error("m=257: want error")
	}
	if _, err := NewID(digest, 128); err != nil {
		t.Error(err)
	}
}

func TestIDTruncation(t *testing.T) {
	// Two digests differing only beyond bit m must compare equal.
	d1 := sha256.Sum256([]byte("x"))
	d2 := d1
	d2[31] ^= 0xFF // differs in the last byte only
	a, err := NewID(d1, 64)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewID(d2, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Error("ids differing beyond bit 64 must be equal at m=64")
	}
	if a.String() != b.String() {
		t.Error("strings must agree after truncation")
	}
	c, err := NewID(d2, 256)
	if err != nil {
		t.Fatal(err)
	}
	if a.Equal(c) {
		t.Error("different widths must not be equal")
	}
}

func TestIDBitAccess(t *testing.T) {
	var digest [32]byte
	digest[0] = 0b1010_0000
	id, err := NewID(digest, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 0, 1, 0, 0, 0, 0, 0}
	for i, w := range want {
		got, err := id.Bit(i)
		if err != nil {
			t.Fatal(err)
		}
		if got != w {
			t.Errorf("bit %d = %d, want %d", i, got, w)
		}
	}
	if _, err := id.Bit(8); err == nil {
		t.Error("bit out of range: want error")
	}
	if _, err := id.Bit(-1); err == nil {
		t.Error("negative bit: want error")
	}
}

func TestCommonPrefixLen(t *testing.T) {
	var d1, d2 [32]byte
	d1[0], d2[0] = 0b1100_0000, 0b1101_0000
	a, _ := NewID(d1, 32)
	b, _ := NewID(d2, 32)
	if got := a.CommonPrefixLen(b); got != 3 {
		t.Errorf("common prefix = %d, want 3", got)
	}
	if got := a.CommonPrefixLen(a); got != 32 {
		t.Errorf("self prefix = %d, want 32", got)
	}
}

func TestIncarnationArithmetic(t *testing.T) {
	tests := []struct {
		t, t0, L float64
		want     int64
	}{
		{0, 0, 10, 1},    // at creation: first incarnation
		{0.1, 0, 10, 1},  // inside first lifetime
		{10, 0, 10, 1},   // boundary belongs to incarnation 1 (ceil)
		{10.1, 0, 10, 2}, // just past the boundary
		{95, 50, 10, 5},
	}
	for _, tt := range tests {
		got, err := Incarnation(tt.t, tt.t0, tt.L)
		if err != nil {
			t.Fatal(err)
		}
		if got != tt.want {
			t.Errorf("Incarnation(%v,%v,%v) = %d, want %d", tt.t, tt.t0, tt.L, got, tt.want)
		}
	}
	if _, err := Incarnation(5, 10, 10); err == nil {
		t.Error("t before t0: want error")
	}
	if _, err := Incarnation(5, 0, 0); err == nil {
		t.Error("L=0: want error")
	}
}

func TestExpiryTime(t *testing.T) {
	if got := ExpiryTime(100, 10, 3); got != 130 {
		t.Errorf("ExpiryTime = %v, want 130", got)
	}
}

func TestValidIncarnationsGraceWindow(t *testing.T) {
	// Far from a boundary both incarnations agree.
	k1, k2, err := ValidIncarnations(5, 0, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != 1 || k2 != 1 {
		t.Errorf("mid-lifetime: k1=%d k2=%d, want 1,1", k1, k2)
	}
	// Near the boundary t = 10 they straddle it.
	k1, k2, err = ValidIncarnations(10.2, 0, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != 1 || k2 != 2 {
		t.Errorf("near boundary: k1=%d k2=%d, want 1,2", k1, k2)
	}
	if _, _, err := ValidIncarnations(5, 0, 10, -1); err == nil {
		t.Error("negative window: want error")
	}
}

func TestDeriveIDChangesPerIncarnation(t *testing.T) {
	d := sha256.Sum256([]byte("peer"))
	id0, _ := NewID(d, 128)
	id1 := DeriveID(id0, 1)
	id2 := DeriveID(id0, 2)
	if id1.Equal(id2) {
		t.Error("successive incarnations must differ")
	}
	if id1.Equal(id0) {
		t.Error("derived id must differ from id0")
	}
	if !DeriveID(id0, 1).Equal(id1) {
		t.Error("derivation must be deterministic")
	}
}

func TestCAIssueAndVerify(t *testing.T) {
	ca := newCA(t)
	idn := newIdentity(t, ca, "alice", 100, 7)
	cert := idn.Certificate()
	if err := VerifyCertificate(ca.PublicKey(), cert); err != nil {
		t.Fatal(err)
	}
	// Tampering with t0 must break the signature (Property 1 defense).
	tampered := *cert
	tampered.CreatedAt = 0
	if err := VerifyCertificate(ca.PublicKey(), &tampered); !errors.Is(err, ErrBadSignature) {
		t.Errorf("tampered t0: got %v, want ErrBadSignature", err)
	}
	tampered = *cert
	tampered.Subject = "mallory"
	if err := VerifyCertificate(ca.PublicKey(), &tampered); !errors.Is(err, ErrBadSignature) {
		t.Errorf("tampered subject: got %v, want ErrBadSignature", err)
	}
	if err := VerifyCertificate(ca.PublicKey(), nil); err == nil {
		t.Error("nil certificate: want error")
	}
}

func TestCAIssueValidation(t *testing.T) {
	ca := newCA(t)
	if _, err := ca.Issue("", nil, 0); err == nil {
		t.Error("empty subject: want error")
	}
	if _, err := ca.Issue("x", []byte{1, 2}, 0); err == nil {
		t.Error("short key: want error")
	}
	if _, err := NewCA("", 1); err == nil {
		t.Error("empty CA name: want error")
	}
	if _, err := NewIdentity(nil, "x", 0, 128, 1); err == nil {
		t.Error("nil CA: want error")
	}
	if ca.Name() != "test-ca" {
		t.Error("CA name accessor broken")
	}
}

func TestSerialsIncrease(t *testing.T) {
	ca := newCA(t)
	a := newIdentity(t, ca, "a", 0, 1)
	b := newIdentity(t, ca, "b", 0, 2)
	if a.Certificate().Serial >= b.Certificate().Serial {
		t.Error("serials must increase")
	}
}

func TestMessageSigning(t *testing.T) {
	ca := newCA(t)
	idn := newIdentity(t, ca, "alice", 0, 3)
	msg := []byte("join request")
	sig := idn.Sign(msg)
	if err := VerifyMessage(idn.Certificate(), msg, sig); err != nil {
		t.Fatal(err)
	}
	if err := VerifyMessage(idn.Certificate(), []byte("altered"), sig); !errors.Is(err, ErrBadSignature) {
		t.Errorf("altered message: got %v, want ErrBadSignature", err)
	}
	if err := VerifyMessage(nil, msg, sig); err == nil {
		t.Error("nil cert: want error")
	}
}

func TestVerifyClaimedIDHappyPath(t *testing.T) {
	ca := newCA(t)
	idn := newIdentity(t, ca, "alice", 100, 5)
	const lifetime, window = 50.0, 2.0
	now := 160.0
	claimed, k, err := idn.CurrentID(now, lifetime)
	if err != nil {
		t.Fatal(err)
	}
	if k != 2 {
		t.Errorf("incarnation = %d, want 2", k)
	}
	got, err := VerifyClaimedID(ca.PublicKey(), idn.Certificate(), claimed, now, lifetime, window)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Errorf("verified incarnation = %d, want 2", got)
	}
}

func TestVerifyClaimedIDRejectsExpired(t *testing.T) {
	ca := newCA(t)
	idn := newIdentity(t, ca, "alice", 100, 5)
	const lifetime, window = 50.0, 2.0
	// The identifier of incarnation 1 is no longer valid at t = 220
	// (incarnation 3, far beyond the grace window).
	stale, _, err := idn.CurrentID(110, lifetime)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyClaimedID(ca.PublicKey(), idn.Certificate(), stale, 220, lifetime, window); !errors.Is(err, ErrBadID) {
		t.Errorf("stale id: got %v, want ErrBadID", err)
	}
}

func TestVerifyClaimedIDGraceWindowAcceptsNeighbor(t *testing.T) {
	ca := newCA(t)
	idn := newIdentity(t, ca, "alice", 0, 5)
	const lifetime, window = 50.0, 4.0
	// Just after the k=1 → k=2 boundary (t=50), the old id must still be
	// accepted within W/2.
	old, _, err := idn.CurrentID(49.9, lifetime)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyClaimedID(ca.PublicKey(), idn.Certificate(), old, 51, lifetime, window); err != nil {
		t.Errorf("grace window rejected a barely-expired id: %v", err)
	}
	// Without a grace window it must be rejected.
	if _, err := VerifyClaimedID(ca.PublicKey(), idn.Certificate(), old, 51, lifetime, 0); !errors.Is(err, ErrBadID) {
		t.Errorf("no window: got %v, want ErrBadID", err)
	}
}

func TestVerifyClaimedIDRejectsForeignCertificate(t *testing.T) {
	ca := newCA(t)
	alice := newIdentity(t, ca, "alice", 0, 5)
	mallory := newIdentity(t, ca, "mallory", 0, 6)
	const lifetime, window = 50.0, 2.0
	// Mallory claims Alice's identifier with her own certificate.
	claimed, _, err := alice.CurrentID(10, lifetime)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyClaimedID(ca.PublicKey(), mallory.Certificate(), claimed, 10, lifetime, window); !errors.Is(err, ErrBadID) {
		t.Errorf("foreign cert: got %v, want ErrBadID", err)
	}
}

func TestExpiresAt(t *testing.T) {
	ca := newCA(t)
	idn := newIdentity(t, ca, "alice", 100, 5)
	exp, err := idn.ExpiresAt(120, 50)
	if err != nil {
		t.Fatal(err)
	}
	if exp != 150 {
		t.Errorf("ExpiresAt = %v, want 150", exp)
	}
	if _, err := idn.ExpiresAt(0, 50); err == nil {
		t.Error("t before t0: want error")
	}
}

// TestIDUniformity: derived ids spread across the space (first-bit balance
// within 5σ over 2000 samples).
func TestIDUniformity(t *testing.T) {
	ca := newCA(t)
	ones := 0
	const n = 2000
	for i := 0; i < n; i++ {
		idn := newIdentity(t, ca, "peer", float64(i), int64(i))
		id, _, err := idn.CurrentID(float64(i)+1, 10)
		if err != nil {
			t.Fatal(err)
		}
		b, err := id.Bit(0)
		if err != nil {
			t.Fatal(err)
		}
		ones += b
	}
	dev := float64(ones) - n/2
	if dev < 0 {
		dev = -dev
	}
	if dev > 5*22.4 { // 5·sqrt(n/4)
		t.Errorf("first-bit ones = %d of %d: identifiers not uniform", ones, n)
	}
}

// TestIncarnationMonotoneProperty: k never decreases as t grows.
func TestIncarnationMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		t0 := rng.Float64() * 100
		lifetime := 0.1 + rng.Float64()*100
		prev := int64(0)
		for i := 0; i < 50; i++ {
			tm := t0 + float64(i)*lifetime/7
			k, err := Incarnation(tm, t0, lifetime)
			if err != nil || k < prev {
				return false
			}
			prev = k
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
