package svc

import (
	"reflect"
	"testing"

	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

// TestServiceWireRoundTrip: every service message survives the wire codec
// byte-exactly, including empty corner cases.
func TestServiceWireRoundTrip(t *testing.T) {
	values := map[string]any{
		"command": Command{Session: 7, Seq: 3, Op: []byte{1, 2, 3}},
		"command-empty-op": Command{Session: 1, Seq: 1,
			Op: []byte{9}},
		"request": Request{Session: 9, Seq: 12, Dest: types.NewGroupSet(0, 2),
			Op: []byte("put")},
		"reply-ok":  Reply{Session: 9, Seq: 12, OK: true, Result: []byte("r")},
		"reply-err": Reply{Session: 9, Seq: 12, Err: "stale sequence 3"},
		"redirect": Redirect{Session: 4, Seq: 1, Groups: types.NewGroupSet(1),
			Addrs: []string{"127.0.0.1:9", "127.0.0.1:10"}},
		"redirect-no-addrs": Redirect{Session: 4, Seq: 2, Groups: types.NewGroupSet(0)},
		"reply-ordered": Reply{Session: 9, Seq: 13, OK: true, Result: []byte("r"),
			Order: 512},
		"read-req": ReadReq{Session: 9, Seq: 4, Group: 2, Mode: readModeLease,
			MinWatermark: 88, Op: []byte{2, 1}},
		"read-req-watermark": ReadReq{Session: 1, Seq: 1, Group: 0,
			Mode: readModeWatermark, Op: []byte{2}},
		"read-resp-ok": ReadResp{Session: 9, Seq: 4, OK: true,
			Result: []byte{1, 0, 3}, Watermark: 91},
		"read-resp-err": ReadResp{Session: 9, Seq: 5, Err: "no lease",
			Watermark: 91},
		"cert-req": CertReq{Session: 9, Seq: 12},
		"cert-share-ok": CertShare{Session: 9, Seq: 12, OK: true,
			ID: types.MessageID{Origin: 4, Seq: 7}, Group: 1, Order: 33,
			Hash: []byte("hhhh"), Proc: 5, MAC: []byte("mmmm")},
		"cert-share-err": CertShare{Session: 9, Seq: 13,
			Err: "not in the dedup window"},
	}
	for name, v := range values {
		buf := wire.AppendValue(nil, v)
		got, rest, err := wire.DecodeValue(buf)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if len(rest) != 0 {
			t.Fatalf("%s: %d trailing bytes", name, len(rest))
		}
		if !reflect.DeepEqual(got, v) {
			t.Fatalf("%s: round trip = %#v, want %#v", name, got, v)
		}
	}
}

// TestServiceWireCorrupt: truncations of every encoding decode to errors,
// never panics (the transport-level contract).
func TestServiceWireCorrupt(t *testing.T) {
	values := []any{
		Command{Session: 7, Seq: 3, Op: []byte{1, 2, 3}},
		Request{Session: 9, Seq: 12, Dest: types.NewGroupSet(0, 2), Op: []byte("put")},
		Reply{Session: 9, Seq: 12, OK: true, Result: []byte("r"), Order: 300},
		Redirect{Session: 4, Seq: 1, Groups: types.NewGroupSet(1), Addrs: []string{"a", "b"}},
		ReadReq{Session: 9, Seq: 4, Group: 2, Mode: readModeLease, MinWatermark: 88, Op: []byte{2, 1}},
		ReadResp{Session: 9, Seq: 4, OK: true, Result: []byte{1, 0, 3}, Watermark: 300},
		CertReq{Session: 9, Seq: 300},
		CertShare{Session: 9, Seq: 12, OK: true, ID: types.MessageID{Origin: 4, Seq: 7},
			Group: 1, Order: 300, Hash: []byte("hhhh"), Proc: 5, MAC: []byte("mmmm")},
	}
	for _, v := range values {
		full := wire.AppendValue(nil, v)
		for cut := 0; cut < len(full); cut++ {
			// Every strict prefix must decode to an error — each type either
			// ends with a length-delimited field or with a multi-byte
			// uvarint (the 300s above), so no prefix is a valid complete
			// encoding — and, per the transport contract, must never panic.
			if _, _, err := wire.DecodeValue(full[:cut]); err == nil {
				t.Errorf("%T truncated to %d/%d bytes decoded without error", v, cut, len(full))
			}
		}
	}
}

// TestPrefixRoute: "g<N>/..." keys land on shard N mod |Γ|; everything
// else falls back to first-byte hashing, and no input panics.
func TestPrefixRoute(t *testing.T) {
	route := PrefixRoute(3)
	cases := map[string]types.GroupID{
		"g0/x":    0,
		"g1/x":    1,
		"g2/x":    2,
		"g4/x":    1, // mod 3
		"g12/k":   0, // 12 mod 3
		"gx/x":    'g' % 3,
		"plain":   'p' % 3,
		"g/slash": 'g' % 3,
		"":        0,
	}
	for key, want := range cases {
		if got := route(key); got != want {
			t.Errorf("route(%q) = %v, want %v", key, got, want)
		}
	}
}

// TestKVMachineApplyAndSnapshot: puts route to the owning shard only, gets
// read back, snapshots are deterministic.
func TestKVMachineApplyAndSnapshot(t *testing.T) {
	route := PrefixRoute(2)
	m0 := NewKVMachine(0, route)
	m1 := NewKVMachine(1, route)
	op := EncodePut(map[string]string{"g0/a": "1", "g1/b": "2"})
	res0, err := m0.Apply(op)
	if err != nil {
		t.Fatal(err)
	}
	res1, err := m1.Apply(op)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := DecodePutResult(res0); n != 1 {
		t.Fatalf("shard 0 wrote %d keys, want 1", n)
	}
	if n, _ := DecodePutResult(res1); n != 1 {
		t.Fatalf("shard 1 wrote %d keys, want 1", n)
	}
	if v, ok := m0.Get("g0/a"); !ok || v != "1" {
		t.Fatalf("shard 0 g0/a = %q,%v", v, ok)
	}
	if _, ok := m0.Get("g1/b"); ok {
		t.Fatal("shard 0 stored a key it does not own")
	}
	res, err := m0.Apply(EncodeGet("g0/a"))
	if err != nil {
		t.Fatal(err)
	}
	v, found, err := DecodeGetResult(res)
	if err != nil || !found || v != "1" {
		t.Fatalf("get result = %q,%v,%v", v, found, err)
	}
	twin := NewKVMachine(0, route)
	if _, err := twin.Apply(op); err != nil {
		t.Fatal(err)
	}
	s1, _ := m0.Snapshot()
	// m0 also applied a get; snapshots cover data only, so they match.
	s2, _ := twin.Snapshot()
	if string(s1) != string(s2) {
		t.Fatal("snapshots of identical shard state differ")
	}
	if m0.Applied() != 1 || m1.Applied() != 1 {
		t.Fatalf("applied counts %d,%d, want 1,1 (gets are not mutations)", m0.Applied(), m1.Applied())
	}
}

// TestKVMachineSkipsOtherShardsValues: a replica applying a two-shard put
// stores its own shard's keys with their values, writes the count it wrote,
// and builds no value for a key routed elsewhere: a put of foreign keys only
// costs a string per key (for the route) and the result.
func TestKVMachineSkipsOtherShardsValues(t *testing.T) {
	route := PrefixRoute(2)
	m := NewKVMachine(1, route)
	sets := map[string]string{"g0/a": "x", "g1/b": "yy", "g0/c": "zzz", "g1/d": "", "g1/e": "w"}
	res, err := m.Apply(EncodePut(sets))
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := DecodePutResult(res); n != 3 || m.Len() != 3 {
		t.Fatalf("wrote %d, holds %d keys; want 3 and 3", n, m.Len())
	}
	for k, v := range sets {
		got, ok := m.Get(k)
		if mine := route(k) == 1; ok != mine || (mine && got != v) {
			t.Errorf("%s = %q,%v; want %q held %v", k, got, ok, v, mine)
		}
	}
	foreign := EncodePut(map[string]string{"g0/a": "xx", "g0/b": "yy", "g0/c": "zz"})
	if n := testing.AllocsPerRun(100, func() { _, _ = m.Apply(foreign) }); n > 4 {
		t.Errorf("a put of 3 foreign keys: %.1f allocs, want at most 4", n)
	}
}

// TestKVMachineCorruptOps: malformed command bytes error out without
// mutating state.
func TestKVMachineCorruptOps(t *testing.T) {
	m := NewKVMachine(0, PrefixRoute(1))
	for _, op := range [][]byte{nil, {}, {99}, {1, 200}, {2}} {
		if _, err := m.Apply(op); err == nil {
			t.Errorf("Apply(%v) accepted a corrupt op", op)
		}
	}
	if m.Applied() != 0 || m.Len() != 0 {
		t.Fatal("corrupt ops mutated the machine")
	}
}
