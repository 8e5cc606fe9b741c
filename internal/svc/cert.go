// Delivery certificates: a quorum of a shard's replicas countersigns the
// receipt (MessageID, group, order t, state hash) of an applied command,
// and the client can verify the bundle OFFLINE — no trust in any single
// replica, in the spirit of pod's accountable, optimal-latency reads.
//
// Each replica p holds an HMAC-SHA256 key derived from a deployment
// secret; its CertShare MACs the canonical receipt bytes under that key.
// A majority of matching shares proves — to anyone holding the KeyRing —
// that a majority of the shard attests the command was A-Delivered at
// order t leaving the shard's rolling state hash at h: forging a
// certificate requires forging MACs, and equivocating about t or h
// requires a majority of replicas to diverge from the replicated state
// machine, which the §2.2 properties rule out for correct processes.
package svc

import (
	"crypto/hmac"
	"crypto/sha256"
	"fmt"

	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

// CertReq asks a replica for its countersignature over the receipt of the
// write command (Session, Seq). The command must still be inside the
// session's dedup window at that replica.
type CertReq struct {
	Session uint64
	Seq     uint64
}

// CertShare is one replica's countersignature: replica Proc of shard
// Group attests that command (Session, Seq) — ordered as message ID —
// A-Delivered at shard order Order, leaving the shard's rolling state
// hash at Hash. MAC is HMAC-SHA256 over the canonical receipt bytes
// under Proc's key.
type CertShare struct {
	Session uint64
	Seq     uint64
	OK      bool
	Err     string
	ID      types.MessageID
	Group   types.GroupID
	Order   uint64
	Hash    []byte
	Proc    types.ProcessID
	MAC     []byte
}

// Certificate is a client-assembled bundle of matching shares. Verify
// with KeyRing.VerifyCertificate — the check needs no network.
type Certificate struct {
	ID     types.MessageID
	Group  types.GroupID
	Order  uint64
	Hash   []byte
	Shares map[types.ProcessID][]byte // replica → MAC over the receipt
}

// KeyRing derives each replica's certificate key from one deployment
// secret: key(p) = HMAC-SHA256(secret, "cert-key" ‖ uvarint(p)). Both
// sides of the protocol — replicas signing and clients verifying — hold
// the same ring; it is the deployment's root of trust for receipts.
type KeyRing struct {
	secret []byte
}

// NewKeyRing builds a ring from the deployment secret (non-empty).
func NewKeyRing(secret []byte) *KeyRing {
	if len(secret) == 0 {
		panic("svc: empty certificate secret")
	}
	return &KeyRing{secret: append([]byte(nil), secret...)}
}

func (r *KeyRing) keyOf(p types.ProcessID) []byte {
	mac := hmac.New(sha256.New, r.secret)
	mac.Write([]byte("cert-key"))
	mac.Write(wire.AppendUvarint(nil, uint64(p)))
	return mac.Sum(nil)
}

// Sign MACs msg under p's derived key.
func (r *KeyRing) Sign(p types.ProcessID, msg []byte) []byte {
	mac := hmac.New(sha256.New, r.keyOf(p))
	mac.Write(msg)
	return mac.Sum(nil)
}

// Verify checks a MAC in constant time.
func (r *KeyRing) Verify(p types.ProcessID, msg, mac []byte) bool {
	return hmac.Equal(mac, r.Sign(p, msg))
}

// receiptBytes is the canonical signing payload of one receipt. Every
// field a certificate attests is bound into it; anything mutable left out
// would be forgeable.
func receiptBytes(id types.MessageID, g types.GroupID, order uint64, hash []byte) []byte {
	buf := id.AppendTo(nil)
	buf = wire.AppendVarint(buf, int64(g))
	buf = wire.AppendUvarint(buf, order)
	return wire.AppendBytes(buf, hash)
}

// VerifyCertificate checks c offline against the shard membership: every
// share must come from a distinct member of the group and carry a valid
// MAC over the receipt, and the shares must number at least a majority of
// the group. A nil error means a majority of the shard attests (ID,
// Order, Hash).
func (r *KeyRing) VerifyCertificate(c Certificate, members []types.ProcessID) error {
	quorum := len(members)/2 + 1
	if len(c.Shares) < quorum {
		return fmt.Errorf("svc: certificate has %d shares, quorum is %d", len(c.Shares), quorum)
	}
	isMember := make(map[types.ProcessID]bool, len(members))
	for _, p := range members {
		isMember[p] = true
	}
	msg := receiptBytes(c.ID, c.Group, c.Order, c.Hash)
	for p, mac := range c.Shares {
		if !isMember[p] {
			return fmt.Errorf("svc: certificate share from %v, not a member of group %v", p, c.Group)
		}
		if !r.Verify(p, msg, mac) {
			return fmt.Errorf("svc: certificate share from %v has an invalid MAC", p)
		}
	}
	return nil
}

func init() {
	wire.Register(wire.KindSvcCertReq, appendCertReq, decodeCertReq)
	wire.Register(wire.KindSvcCertShare, appendCertShare, decodeCertShare)
}

func appendCertReq(buf []byte, r CertReq) []byte {
	buf = wire.AppendUvarint(buf, r.Session)
	return wire.AppendUvarint(buf, r.Seq)
}

func decodeCertReq(data []byte) (CertReq, []byte, error) {
	var r CertReq
	var err error
	if r.Session, data, err = wire.Uvarint(data); err != nil {
		return r, nil, err
	}
	if r.Seq, data, err = wire.Uvarint(data); err != nil {
		return r, nil, err
	}
	return r, data, nil
}

func appendCertShare(buf []byte, s CertShare) []byte {
	buf = wire.AppendUvarint(buf, s.Session)
	buf = wire.AppendUvarint(buf, s.Seq)
	ok := byte(0)
	if s.OK {
		ok = 1
	}
	buf = append(buf, ok)
	buf = wire.AppendString(buf, s.Err)
	buf = s.ID.AppendTo(buf)
	buf = wire.AppendVarint(buf, int64(s.Group))
	buf = wire.AppendUvarint(buf, s.Order)
	buf = wire.AppendBytes(buf, s.Hash)
	buf = wire.AppendVarint(buf, int64(s.Proc))
	return wire.AppendBytes(buf, s.MAC)
}

func decodeCertShare(data []byte) (CertShare, []byte, error) {
	var s CertShare
	var err error
	if s.Session, data, err = wire.Uvarint(data); err != nil {
		return s, nil, err
	}
	if s.Seq, data, err = wire.Uvarint(data); err != nil {
		return s, nil, err
	}
	if len(data) == 0 {
		return s, nil, wire.ErrCorrupt
	}
	s.OK, data = data[0] != 0, data[1:]
	if s.Err, data, err = wire.String(data); err != nil {
		return s, nil, err
	}
	if s.ID, data, err = types.DecodeMessageID(data); err != nil {
		return s, nil, err
	}
	var g int64
	if g, data, err = wire.Varint(data); err != nil {
		return s, nil, err
	}
	s.Group = types.GroupID(g)
	if s.Order, data, err = wire.Uvarint(data); err != nil {
		return s, nil, err
	}
	h, data, err := wire.Bytes(data)
	if err != nil {
		return s, nil, err
	}
	s.Hash = append([]byte(nil), h...)
	var p int64
	if p, data, err = wire.Varint(data); err != nil {
		return s, nil, err
	}
	s.Proc = types.ProcessID(p)
	m, data, err := wire.Bytes(data)
	if err != nil {
		return s, nil, err
	}
	s.MAC = append([]byte(nil), m...)
	return s, data, nil
}
