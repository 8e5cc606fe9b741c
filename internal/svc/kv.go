package svc

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"

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
	buf := []byte{kvOpGet}
	return wire.AppendString(buf, key)
}

// DecodeGetResult unpacks a get's reply result.
func DecodeGetResult(res []byte) (value string, found bool, err error) {
	if len(res) == 0 {
		return "", false, fmt.Errorf("svc: empty get result")
	}
	found, res = res[0] != 0, res[1:]
	value, _, err = wire.String(res)
	return value, found, err
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
		if strings.HasPrefix(key, "g") {
			if i := strings.IndexByte(key, '/'); i > 1 {
				n := 0
				ok := true
				for _, ch := range key[1:i] {
					if ch < '0' || ch > '9' {
						ok = false
						break
					}
					n = n*10 + int(ch-'0')
				}
				if ok {
					return types.GroupID(n % numGroups)
				}
			}
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

	mu      sync.Mutex
	data    map[string]string
	applied uint64 // mutating commands applied (exactly-once accounting)
}

// NewKVMachine builds the machine for one replica of shard group.
func NewKVMachine(group types.GroupID, route Route) *KVMachine {
	return &KVMachine{group: group, route: route, data: make(map[string]string)}
}

// Apply implements StateMachine.
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
	m.mu.Lock()
	defer m.mu.Unlock()
	n, body, err := wire.SliceLen(op[1:])
	if err != nil {
		return nil, fmt.Errorf("kv: corrupt put: %w", err)
	}
	wrote := 0
	for i := 0; i < n; i++ {
		var k string
		var v []byte
		if k, body, err = wire.String(body); err != nil {
			return nil, fmt.Errorf("kv: corrupt put key: %w", err)
		}
		if v, body, err = wire.Bytes(body); err != nil {
			return nil, fmt.Errorf("kv: corrupt put value: %w", err)
		}
		if m.route(k) == m.group { // another shard's value is never built
			m.data[k] = string(v)
			wrote++
		}
	}
	m.applied++
	return wire.AppendUvarint(nil, uint64(wrote)), nil
}

// Query implements QueryMachine: it evaluates a READ-ONLY op against the
// current shard state without the ordering layer — the read tier's entry
// point. Only gets are read-only; anything else is refused (a mutation
// smuggled around the ordered path would diverge the replicas). The
// result encoding matches Apply's, so DecodeGetResult works on both.
func (m *KVMachine) Query(op []byte) ([]byte, error) {
	if len(op) == 0 || op[0] != kvOpGet {
		return nil, fmt.Errorf("kv: not a read-only op")
	}
	k, _, err := wire.String(op[1:])
	if err != nil {
		return nil, fmt.Errorf("kv: corrupt get: %w", err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	v, found := m.data[k]
	res := []byte{0}
	if found {
		res[0] = 1
	}
	return wire.AppendString(res, v), nil
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
		buf = wire.AppendString(buf, m.data[k])
	}
	return buf, nil
}

// Restore implements StateMachine: it replaces the shard state with a
// Snapshot-ted one (crash recovery).
func (m *KVMachine) Restore(snapshot []byte) error {
	applied, data, err := wire.Uvarint(snapshot)
	if err != nil {
		return fmt.Errorf("kv: corrupt snapshot: %w", err)
	}
	var n int
	if n, data, err = wire.SliceLen(data); err != nil {
		return fmt.Errorf("kv: corrupt snapshot: %w", err)
	}
	fresh := make(map[string]string, n)
	for i := 0; i < n; i++ {
		var k, v string
		if k, data, err = wire.String(data); err != nil {
			return fmt.Errorf("kv: corrupt snapshot key: %w", err)
		}
		if v, data, err = wire.String(data); err != nil {
			return fmt.Errorf("kv: corrupt snapshot value: %w", err)
		}
		fresh[k] = v
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
	v, ok := m.data[key]
	return v, ok
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
