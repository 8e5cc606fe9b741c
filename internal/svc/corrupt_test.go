package svc

import (
	"bytes"
	"errors"
	"testing"

	"wanamcast/internal/amcast"
	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

// carriedCommand is the service command of commandCarriers with the given seq.
func carriedCommand(seq uint64) []byte {
	return wire.AppendValue(nil, Command{Session: 1 << 20, Seq: seq, Op: EncodePut(map[string]string{"g1/k": "v"})})
}

// commandCarriers are the A1 values that carry commands 1–4 to the replicas:
// a batch (with a payload besides that is not a command), a (TS, m) and
// a pull.
func commandCarriers() map[string]any {
	dest := types.NewGroupSet(0, 1)
	return map[string]any{
		"batch": []amcast.Descriptor{
			{ID: types.MessageID{Origin: 2, Seq: 30}, Dest: dest, Payload: carriedCommand(1), TS: 1 << 40},
			{ID: types.MessageID{Origin: 2, Seq: 31}, Dest: dest, Payload: wire.AppendValue(nil, "not a command"), TS: 1<<40 + 3},
			{ID: types.MessageID{Origin: 5, Seq: 9}, Dest: types.NewGroupSet(1), Payload: carriedCommand(2), TS: 1<<40 + 9},
		},
		"ts": amcast.TSMsg{Desc: amcast.Descriptor{ID: types.MessageID{Origin: 1, Seq: 4}, Dest: dest,
			Payload: carriedCommand(3), TS: 1 << 41, Stage: amcast.Stage1}},
		"pull": amcast.PullMsg{Desc: amcast.Descriptor{ID: types.MessageID{Origin: 3, Seq: 5}, Dest: dest,
			Payload: carriedCommand(4), TS: 1<<41 + 1, Stage: amcast.Stage1}},
	}
}

// payloadsOf lists the payloads a carrier holds, in order.
func payloadsOf(v any) [][]byte {
	switch m := v.(type) {
	case []amcast.Descriptor:
		ps := make([][]byte, len(m))
		for i, d := range m {
			ps[i] = d.Payload
		}
		return ps
	case amcast.TSMsg:
		return [][]byte{m.Desc.Payload}
	case amcast.PullMsg:
		return [][]byte{m.Desc.Payload}
	}
	return nil
}

// appliedAnywhere delivers payload to two replicas of each of two shards and
// reports whether it changed their state. It fails the test unless every
// replica did the same, and the replicas of a shard ended equal.
func appliedAnywhere(t *testing.T, payload []byte) bool {
	t.Helper()
	var changed []bool
	for g := types.GroupID(0); g < 2; g++ {
		var after [][]byte
		for range 2 {
			s := NewServer(ServerConfig{Groups: 2, Group: g, Machine: NewKVMachine(g, PrefixRoute(2)),
				Submit: func([]byte, types.GroupSet, func(types.MessageID)) {}})
			before, _ := s.SaveSnapshot()
			s.Deliver(types.MessageID{Origin: 2, Seq: 30}, payload)
			snap, _ := s.SaveSnapshot()
			changed = append(changed, !bytes.Equal(before, snap))
			after = append(after, snap)
		}
		if !bytes.Equal(after[0], after[1]) {
			t.Fatalf("two replicas of shard %v diverged on payload %x", g, payload)
		}
	}
	for _, c := range changed[1:] {
		if c != changed[0] {
			t.Fatalf("payload %x applied at some replicas only: %v", payload, changed)
		}
	}
	return changed[0]
}

// TestCorruptCommandAppliesNothing truncates each of commandCarriers' frames
// inside one of its commands, or sets one of the command's bytes to 0x00 or
// 0xFF, at every byte, and hands what decodes to the replicas. The ordering
// core carries a payload without reading it, so the service, which owns the
// format, refuses what does not parse as a Command: the mutations that failed
// the frame when every payload was decoded on receipt — the masks were
// recorded then, one character per mutation ('x' failed), a space between
// commands — must now apply nothing, identically at every replica, and the
// others must apply.
func TestCorruptCommandAppliesNothing(t *testing.T) {
	const one = "xxxxx.xx.x.xx.xxxxx..x..x..x..x..x..x..x..x.."
	want := map[string]string{"batch": one + " " + one, "ts": one, "pull": one}
	for name, v := range commandCarriers() {
		frame, err := wire.AppendFrame(nil, 1, "a1", 0, v)
		if err != nil {
			t.Fatal(err)
		}
		body := frame[4:]
		var mask []byte
		for i, p := range payloadsOf(v) {
			if wire.Kind(p[0]) != wire.KindSvcCommand {
				continue
			}
			at := bytes.Index(body, p)
			for k := at; k < at+len(p); k++ {
				for _, corrupt := range []func() []byte{
					func() []byte { return bytes.Clone(body[:k]) },
					func() []byte { b := bytes.Clone(body); b[k] = 0; return b },
					func() []byte { b := bytes.Clone(body); b[k] = 0xFF; return b },
				} {
					v, err := frameValue(corrupt())
					if err != nil || !appliedAnywhere(t, payloadsOf(v)[i]) {
						mask = append(mask, 'x')
					} else {
						mask = append(mask, '.')
					}
				}
			}
			mask = append(mask, ' ')
		}
		if got := string(bytes.TrimSpace(mask)); got != want[name] {
			t.Errorf("%s: rejection mask\n got %q\nwant %q", name, got, want[name])
		}
	}
}

// frameValue decodes a plain frame payload's value as a reader without a type
// does: the frame, its value (DecodeValue), and nothing after it.
func frameValue(data []byte) (any, error) {
	_, value, err := wire.FrameValue(data)
	if err != nil {
		return nil, err
	}
	v, rest, err := wire.DecodeValue(value)
	if err == nil && len(rest) != 0 {
		err = errors.New("bytes after the value")
	}
	return v, err
}

// TestDeliverParsesWithoutAllocating: a replica reads its commands straight
// out of the delivered bytes.
func TestDeliverParsesWithoutAllocating(t *testing.T) {
	p := carriedCommand(1)
	if n := testing.AllocsPerRun(100, func() { _, _ = commands(p) }); n != 0 {
		t.Errorf("commands: %.1f allocs, want 0", n)
	}
	if _, ok := commands(append(bytes.Clone(p), 0)); ok {
		t.Error("a command with a trailing byte parsed")
	}
}

// TestCorruptBatchAppliesNothing: a two-command cast whose second command is
// cut short, or which has a byte after its last command, applies neither
// command, identically at every replica; whole, it applies.
func TestCorruptBatchAppliesNothing(t *testing.T) {
	second := appendCommand(nil, Command{Session: 1 << 20, Seq: 2, Op: EncodePut(map[string]string{"g1/k": "w"})})
	whole := append(carriedCommand(1), second...)
	if !appliedAnywhere(t, whole) {
		t.Fatal("the whole two-command cast applied nothing")
	}
	bad := [][]byte{append(bytes.Clone(whole), 0)}
	for cut := 1; cut < len(second); cut++ {
		bad = append(bad, whole[:len(whole)-cut])
	}
	for _, p := range bad {
		if appliedAnywhere(t, p) {
			t.Errorf("cast %x applied: its first command is whole, its tail is not", p)
		}
	}
}
