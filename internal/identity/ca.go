package identity

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
)

// Errors returned by certificate and signature verification.
var (
	ErrBadSignature = errors.New("identity: invalid signature")
	ErrBadID        = errors.New("identity: claimed identifier does not match any valid incarnation")
)

// Certificate binds a subject and public key to a creation time t0, signed
// by the CA. It plays the role of the paper's X.509 certificate: t0 is
// among the signed fields, so a malicious peer cannot unnoticeably extend
// its identifier lifetime.
type Certificate struct {
	// Subject is the peer's registered name.
	Subject string
	// PublicKey is the peer's ed25519 verification key.
	PublicKey ed25519.PublicKey
	// CreatedAt is t0, the certificate creation time.
	CreatedAt float64
	// Serial is the CA-assigned serial number.
	Serial uint64
	// Signature is the CA's signature over the encoded fields.
	Signature []byte
}

// encodeFields serializes the signed fields deterministically.
func (c *Certificate) encodeFields() []byte {
	var buf bytes.Buffer
	writeBytes := func(b []byte) {
		var n [8]byte
		binary.BigEndian.PutUint64(n[:], uint64(len(b)))
		buf.Write(n[:])
		buf.Write(b)
	}
	writeBytes([]byte(c.Subject))
	writeBytes(c.PublicKey)
	var t [8]byte
	binary.BigEndian.PutUint64(t[:], uint64(int64(c.CreatedAt*1e6))) // µ-tick fixed point
	buf.Write(t[:])
	var s [8]byte
	binary.BigEndian.PutUint64(s[:], c.Serial)
	buf.Write(s[:])
	return buf.Bytes()
}

// InitialID derives id0 = H(certificate fields) truncated to m bits.
func (c *Certificate) InitialID(m int) (ID, error) {
	return NewID(sha256.Sum256(c.encodeFields()), m)
}

// CA is a registration authority issuing signed certificates.
type CA struct {
	name   string
	pub    ed25519.PublicKey
	priv   ed25519.PrivateKey
	serial uint64
}

// NewCA creates a CA with a deterministic key derived from seed (the
// simulator needs reproducibility; a production deployment would use
// crypto/rand).
func NewCA(name string, seed int64) (*CA, error) {
	if name == "" {
		return nil, fmt.Errorf("identity: CA needs a name")
	}
	pub, priv, err := ed25519.GenerateKey(rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, fmt.Errorf("identity: generating CA key: %w", err)
	}
	return &CA{name: name, pub: pub, priv: priv}, nil
}

// Name returns the CA name.
func (ca *CA) Name() string { return ca.name }

// PublicKey returns the CA verification key.
func (ca *CA) PublicKey() ed25519.PublicKey { return ca.pub }

// Issue signs a certificate for subject with the given public key and
// creation time t0.
func (ca *CA) Issue(subject string, pub ed25519.PublicKey, t0 float64) (*Certificate, error) {
	if subject == "" {
		return nil, fmt.Errorf("identity: empty subject")
	}
	if len(pub) != ed25519.PublicKeySize {
		return nil, fmt.Errorf("identity: public key has %d bytes, want %d", len(pub), ed25519.PublicKeySize)
	}
	ca.serial++
	cert := &Certificate{
		Subject:   subject,
		PublicKey: append(ed25519.PublicKey(nil), pub...),
		CreatedAt: t0,
		Serial:    ca.serial,
	}
	cert.Signature = ed25519.Sign(ca.priv, cert.encodeFields())
	return cert, nil
}

// VerifyCertificate checks the CA signature over the certificate fields.
func VerifyCertificate(caPub ed25519.PublicKey, cert *Certificate) error {
	if cert == nil {
		return fmt.Errorf("identity: nil certificate")
	}
	if !ed25519.Verify(caPub, cert.encodeFields(), cert.Signature) {
		return fmt.Errorf("%w: certificate %q/%d", ErrBadSignature, cert.Subject, cert.Serial)
	}
	return nil
}

// Identity is a peer-held credential: the certificate plus the matching
// private key, able to sign messages and derive the current identifier.
type Identity struct {
	cert *Certificate
	priv ed25519.PrivateKey
	m    int
	id0  ID
}

// NewIdentity registers a fresh peer with the CA at time t0 and returns
// its identity with m-bit identifiers. The key is derived
// deterministically from seed for reproducible simulations.
func NewIdentity(ca *CA, subject string, t0 float64, m int, seed int64) (*Identity, error) {
	if ca == nil {
		return nil, fmt.Errorf("identity: nil CA")
	}
	pub, priv, err := ed25519.GenerateKey(rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, fmt.Errorf("identity: generating peer key: %w", err)
	}
	cert, err := ca.Issue(subject, pub, t0)
	if err != nil {
		return nil, err
	}
	id0, err := cert.InitialID(m)
	if err != nil {
		return nil, err
	}
	return &Identity{cert: cert, priv: priv, m: m, id0: id0}, nil
}

// Certificate returns the identity's certificate.
func (idn *Identity) Certificate() *Certificate { return idn.cert }

// InitialID returns id0.
func (idn *Identity) InitialID() ID { return idn.id0 }

// ExpiresAt returns when the incarnation valid at time t expires.
func (idn *Identity) ExpiresAt(t, lifetime float64) (float64, error) {
	k, err := Incarnation(t, idn.cert.CreatedAt, lifetime)
	if err != nil {
		return 0, err
	}
	return ExpiryTime(idn.cert.CreatedAt, lifetime, k), nil
}

// Sign signs a message with the identity's private key.
func (idn *Identity) Sign(msg []byte) []byte {
	return ed25519.Sign(idn.priv, msg)
}

// VerifyMessage checks a peer signature against the certificate's key.
func VerifyMessage(cert *Certificate, msg, sig []byte) error {
	if cert == nil {
		return fmt.Errorf("identity: nil certificate")
	}
	if !ed25519.Verify(cert.PublicKey, msg, sig) {
		return fmt.Errorf("%w: message from %q", ErrBadSignature, cert.Subject)
	}
	return nil
}

// VerifyClaimedID checks Property 1 as any peer can (Section III-D): the
// claimed identifier must equal H(id0 × k) for one of the incarnations
// valid at local time t under grace window W. It returns the matching
// incarnation.
func VerifyClaimedID(caPub ed25519.PublicKey, cert *Certificate, claimed ID, t, lifetime, window float64) (int64, error) {
	if err := VerifyCertificate(caPub, cert); err != nil {
		return 0, err
	}
	id0, err := cert.InitialID(claimed.Bits())
	if err != nil {
		return 0, err
	}
	k1, k2, err := ValidIncarnations(t, cert.CreatedAt, lifetime, window)
	if err != nil {
		return 0, err
	}
	for k := k1; k <= k2; k++ {
		if DeriveID(id0, k).Equal(claimed) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("%w: %q at t=%v (valid incarnations %d..%d)",
		ErrBadID, cert.Subject, t, k1, k2)
}
