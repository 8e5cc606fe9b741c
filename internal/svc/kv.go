package svc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"unsafe"

	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

// The reference application of the service layer: a partially replicated
// key-value store (the paper's §1 scenario). Keys are routed to shards by
// a Route function; a put touching several shards is one cross-shard
// command, genuinely multicast to exactly those shards.

// KV op encoding: one op-code byte, then the op-specific body, all in
// internal/wire primitives.
const (
	kvOpPut byte = 1 // uvarint n, then n × (string key, string value)
	kvOpGet byte = 2 // string key
)

// EncodePut builds a put command. Keys are encoded in sorted order so the
// command bytes — and therefore every replica's Apply — are deterministic.
func EncodePut(sets map[string]string) []byte {
	keys := slices.Sorted(maps.Keys(sets))
	buf := []byte{kvOpPut}
	buf = wire.AppendUvarint(buf, uint64(len(keys)))
	for _, k := range keys {
		buf = wire.AppendString(buf, k)
		buf = wire.AppendString(buf, sets[k])
	}
	return buf
}

// EncodeGet builds a get command (a linearizable read: it rides the same
// ordered path as writes).
func EncodeGet(key string) []byte {
	return wire.AppendString([]byte{kvOpGet}, key)
}

// DecodeGetResult unpacks a get's reply result.
func DecodeGetResult(res []byte) (value string, found bool, err error) {
	d := wire.Decoder{Data: res}
	found, value = wire.Read(&d, wire.Bool), wire.Read(&d, wire.String)
	return value, found, d.Err
}

// DecodePutResult unpacks a put's reply result: how many keys the
// coordinator's shard wrote.
func DecodePutResult(res []byte) (int, error) {
	n, _, err := wire.Uvarint(res)
	return int(n), err
}

// Route maps a key to the shard (group) owning it.
type Route func(key string) types.GroupID

// PrefixRoute routes keys of the form "g<N>/..." to group N (mod
// numGroups); any other key hashes by its first byte. The load generator
// and cmd/wankv use it so a key's shard is visible in the key itself.
func PrefixRoute(numGroups int) Route {
	return func(key string) types.GroupID {
		if num, _, ok := strings.Cut(key, "/"); ok && len(num) > 1 && num[0] == 'g' && strings.Trim(num[1:], "0123456789") == "" {
			n := 0
			for _, ch := range num[1:] {
				n = n*10 + int(ch-'0')
			}
			return types.GroupID(n % numGroups)
		}
		if len(key) == 0 {
			return 0
		}
		return types.GroupID(int(key[0]) % numGroups)
	}
}

// KVMachine is one replica's shard of the key-value store. It implements
// StateMachine: Apply runs in A-Delivery order (serialised by the Server);
// the mutex only guards against concurrent readers (Snapshot, Get,
// Applied).
type KVMachine struct {
	group types.GroupID
	route Route

	mu sync.Mutex
	// data holds each value behind a pointer, so that a put rewrites an
	// existing key in place and builds no key string.
	data    map[string]*[]byte
	applied uint64 // mutating commands applied (exactly-once accounting)
}

// NewKVMachine builds the machine for one replica of shard group.
func NewKVMachine(group types.GroupID, route Route) *KVMachine {
	return &KVMachine{group: group, route: route, data: make(map[string]*[]byte)}
}

// smallCounts are the encodings of the put results below 16: a put's result
// is a view of them, shared read-only, not an allocation of its own.
var smallCounts = [16]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}

// Apply implements StateMachine. A put is checked whole before it writes
// anything, so a corrupt one applies nothing. Keys are routed on a view of
// op: another shard's key or value is never built.
func (m *KVMachine) Apply(op []byte) ([]byte, error) {
	if len(op) == 0 {
		return nil, fmt.Errorf("kv: empty op")
	}
	if op[0] == kvOpGet {
		return m.Query(op) // read-only: the read tier's evaluation
	}
	if op[0] != kvOpPut {
		return nil, fmt.Errorf("kv: unknown op %d", op[0])
	}
	n, body, err := wire.SliceLen(op[1:])
	if err != nil {
		return nil, fmt.Errorf("kv: corrupt put: %w", err)
	}
	for i, rest := 0, body; i < n; i++ {
		if _, rest, err = wire.Bytes(rest); err != nil {
			return nil, fmt.Errorf("kv: corrupt put key: %w", err)
		}
		if _, rest, err = wire.Bytes(rest); err != nil {
			return nil, fmt.Errorf("kv: corrupt put value: %w", err)
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	wrote := 0
	for i := 0; i < n; i++ {
		var k, v []byte
		k, body, _ = wire.Bytes(body)
		v, body, _ = wire.Bytes(body)
		// The view is of the delivered op, which nothing writes: it stays
		// valid as long as route could keep it.
		if m.route(unsafe.String(unsafe.SliceData(k), len(k))) != m.group {
			continue
		}
		if old, ok := m.data[string(k)]; ok {
			*old = append((*old)[:0], v...)
		} else {
			nv := bytes.Clone(v)
			m.data[string(k)] = &nv
		}
		wrote++
	}
	m.applied++
	if wrote < len(smallCounts) {
		return smallCounts[wrote : wrote+1 : wrote+1], nil
	}
	return wire.AppendUvarint(nil, uint64(wrote)), nil
}

// Query implements QueryMachine: it evaluates a READ-ONLY op against the
// current shard state without the ordering layer — the read tier's entry
// point. Only gets are read-only; anything else is refused (a mutation
// smuggled around the ordered path would diverge the replicas). The
// result encoding matches Apply's, so DecodeGetResult works on both; the
// result is the one allocation, and op may be a view.
func (m *KVMachine) Query(op []byte) ([]byte, error) {
	if len(op) == 0 || op[0] != kvOpGet {
		return nil, fmt.Errorf("kv: not a read-only op")
	}
	k, _, err := wire.Bytes(op[1:])
	if err != nil {
		return nil, fmt.Errorf("kv: corrupt get: %w", err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	v, found := m.data[string(k)]
	if !found {
		return []byte{0, 0}, nil
	}
	return wire.AppendBytes(append(make([]byte, 0, 1+binary.MaxVarintLen64+len(*v)), 1), *v), nil
}

// Snapshot implements StateMachine: a deterministic encoding of the shard
// state (including the exactly-once apply counter), byte-identical across
// in-sync replicas.
func (m *KVMachine) Snapshot() ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	keys := slices.Sorted(maps.Keys(m.data))
	var buf []byte
	buf = wire.AppendUvarint(buf, m.applied)
	buf = wire.AppendUvarint(buf, uint64(len(keys)))
	for _, k := range keys {
		buf = wire.AppendString(buf, k)
		buf = wire.AppendBytes(buf, *m.data[k])
	}
	return buf, nil
}

// Restore implements StateMachine: it replaces the shard state with a
// Snapshot-ted one (crash recovery).
func (m *KVMachine) Restore(snapshot []byte) error {
	d := wire.Decoder{Data: snapshot}
	applied := wire.Read(&d, wire.Uvarint)
	fresh := make(map[string]*[]byte)
	for n := wire.Read(&d, wire.SliceLen); n > 0 && d.Err == nil; n-- {
		k, v := wire.Read(&d, wire.String), bytes.Clone(wire.Read(&d, wire.Bytes))
		fresh[k] = &v
	}
	if d.Err != nil {
		return fmt.Errorf("kv: corrupt snapshot: %w", d.Err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.data = fresh
	m.applied = applied
	return nil
}

// Applied returns how many mutating commands this replica has executed —
// the quantity the exactly-once tests pin.
func (m *KVMachine) Applied() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.applied
}

// Get reads a key locally (test/diagnostic access, not linearizable).
func (m *KVMachine) Get(key string) (string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if v, ok := m.data[key]; ok {
		return string(*v), true
	}
	return "", false
}

// Len returns the number of keys held locally.
func (m *KVMachine) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.data)
}

// KV wraps a Client with key-based routing: the destination set of every
// command is exactly the set of shards owning its keys.
type KV struct {
	Client *Client
	Route  Route
}

// DestOf computes the exact destination shards of a key set — the
// genuineness contract: only owners participate.
func (kv *KV) DestOf(keys ...string) types.GroupSet {
	gs := make([]types.GroupID, 0, len(keys))
	for _, k := range keys {
		gs = append(gs, kv.Route(k))
	}
	return types.NewGroupSet(gs...)
}

// Put writes all pairs as one exactly-once command, multicast to the
// owning shards only. It returns how many keys the coordinator shard
// wrote.
func (kv *KV) Put(sets map[string]string) (int, error) {
	res, err := kv.Client.Invoke(kv.DestOf(slices.Collect(maps.Keys(sets))...), EncodePut(sets))
	if err != nil {
		return 0, err
	}
	return DecodePutResult(res)
}

// Get reads a key through the ordered path (linearizable).
func (kv *KV) Get(key string) (string, bool, error) {
	res, err := kv.Client.Invoke(kv.DestOf(key), EncodeGet(key))
	if err != nil {
		return "", false, err
	}
	return DecodeGetResult(res)
}

// GetAt reads a key under the given consistency mode: ordered rides the
// write path, lease and watermark take the read tier (zero WAN round
// trips, falling back to ordered when no replica will serve). All three
// modes record their latency under the matching read class.
func (kv *KV) GetAt(key string, mode Consistency) (string, bool, error) {
	res, err := kv.Client.Read(kv.Route(key), EncodeGet(key), mode)
	if err != nil {
		return "", false, err
	}
	return DecodeGetResult(res)
}
