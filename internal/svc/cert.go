// Delivery certificates, offline: a majority of a shard's replicas MACs the
// receipt (MessageID, group, order t, state hash) of an applied command, and
// anyone holding the KeyRing can verify the bundle without trusting a single
// replica, in the spirit of pod's accountable reads.
//
// Each replica p holds an HMAC-SHA256 key derived from a deployment secret. A
// majority of valid MACs over one receipt proves that a majority of the shard
// attests it: forging a certificate requires forging MACs.
//
// These are an adapter that only bench/ calls: its svc.cert_verify_us driver
// times VerifyCertificate. No replica signs a receipt and no client collects
// one; the next change to the benchmark drops that driver and deletes them.
package svc

import (
	"crypto/hmac"
	"crypto/sha256"
	"fmt"
	"slices"

	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

// Certificate is a bundle of MACs over one receipt. Verify it with
// KeyRing.VerifyCertificate: the check needs no network.
type Certificate struct {
	ID     types.MessageID
	Group  types.GroupID
	Order  uint64
	Hash   []byte
	Shares map[types.ProcessID][]byte // replica → MAC over the receipt
}

// KeyRing derives each replica's certificate key from one deployment
// secret: key(p) = HMAC-SHA256(secret, "cert-key" ‖ uvarint(p)). Signers and
// verifiers hold the same ring; it is the deployment's root of trust for
// receipts.
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
	msg := receiptBytes(c.ID, c.Group, c.Order, c.Hash)
	for p, mac := range c.Shares {
		if !slices.Contains(members, p) {
			return fmt.Errorf("svc: certificate share from %v, not a member of group %v", p, c.Group)
		}
		if !r.Verify(p, msg, mac) {
			return fmt.Errorf("svc: certificate share from %v has an invalid MAC", p)
		}
	}
	return nil
}
