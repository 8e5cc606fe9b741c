package consensus

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"wanamcast/internal/fd"
	"wanamcast/internal/network"
	"wanamcast/internal/node"
	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

// foreign is a well-formed value of a registered kind that is not a batch.
var foreign = Value(wire.AppendTagged(nil, []byte("not a batch")))

// foreignRig is one group of three engines on the simulator, shaped like
// A1's (no OnDecide: a decision is decoded when it applies). It keeps the
// trace lines that report a value applied empty.
type foreignRig struct {
	rt    *node.Runtime
	bs    []*Batcher[testItem]
	empty []string
}

func newForeignRig(t *testing.T) *foreignRig {
	rt := node.NewRuntime(types.NewTopology(1, 3), network.Model{IntraGroup: time.Millisecond}, 1, nil)
	r := &foreignRig{rt: rt}
	rt.Trace = func(format string, args ...any) {
		if line := fmt.Sprintf(format, args...); strings.Contains(line, "applied empty") {
			r.empty = append(r.empty, line)
		}
	}
	for i := range 3 {
		proc := rt.Proc(types.ProcessID(i))
		b := NewBatcher(BatcherConfig[testItem]{
			API:      proc,
			Detector: rt.Oracle(),
			Fill:     func(func(types.MessageID) bool, int, bool) []testItem { return nil },
			Decode:   decodeTestItems,
			OnApply: func(k uint64, batch []testItem) {
				if len(batch) > 0 {
					t.Errorf("p%d applied %v for instance %d, want an empty batch", i, batch, k)
				}
			},
		})
		proc.Register(b.Protocol())
		r.bs = append(r.bs, b)
	}
	rt.Start()
	return r
}

// check asserts that every member applied instance 1, and that each traced
// one line naming it.
func (r *foreignRig) check(t *testing.T, how string) {
	t.Helper()
	for i, b := range r.bs {
		if got := b.AppliedInstances(); got != 1 {
			t.Errorf("%s: p%d applied %d instances, want 1", how, i, got)
		}
	}
	if len(r.empty) != len(r.bs) {
		t.Fatalf("%s: %d trace lines report a value applied empty, want one per member: %q", how, len(r.empty), r.empty)
	}
	for _, line := range r.empty {
		if !strings.Contains(line, " instance 1 ") {
			t.Errorf("%s: %q does not name instance 1", how, line)
		}
	}
}

// TestForeignDecisionAppliesEmpty: a decided value that is not a batch of
// the engine's kind — here well-formed bytes of a registered kind — applies
// as an empty batch at every member, and the apply horizon moves on. It may
// arrive in an Accept announced by reference, in a catch-up Decide that
// carries it, or in a restored snapshot. Before values were bytes the first
// two panicked in the Batcher and Recover skipped the third, stalling the
// horizon for good.
func TestForeignDecisionAppliesEmpty(t *testing.T) {
	r := newForeignRig(t)
	r.bs[0].cons.Propose(1, foreign) // p0 leads: its Accept, then a Decide by reference
	r.rt.Run()
	r.check(t, "accepted")

	r = newForeignRig(t)
	for i, b := range r.bs {
		node.Deliver(r.rt.Proc(types.ProcessID(i)), types.ProcessID((i+1)%3), b.Label(), DecideMsg{Instance: 1, Ballot: -1, Value: foreign}, 0)
	}
	r.check(t, "decide by value")

	src := newForeignRig(t).bs[0]
	in := src.cons.inst(1)
	in.decided, in.decision = true, foreign
	snap := src.AppendSnapshot(nil)
	r = newForeignRig(t)
	for _, b := range r.bs {
		if err := b.RestoreSnapshot(snap); err != nil {
			t.Fatal(err)
		}
		b.BeginRecovery()
		b.Recover()
		b.EndRecovery()
	}
	r.check(t, "restored snapshot")
}

// FuzzConsensusFrames feeds arbitrary bytes to a process as the body of each
// consensus message, and as a decided value to an engine shaped like A1's
// (a decision decoded into a reused buffer when it applies) and one shaped
// like A2's (OnDecide: each decision a slice of its own). Nothing panics,
// each decision applies, and a value that is not a well-formed batch
// applies empty.
func FuzzConsensusFrames(f *testing.F) {
	f.Add([]byte(enc(testItem{ID: mid(1), V: 2}, testItem{ID: mid(2)})))
	f.Add([]byte(foreign))
	f.Add([]byte{})
	f.Add(wire.AppendBytes(wire.AppendVarint(wire.AppendUvarint(nil, 1), -1), enc(testItem{ID: mid(3)})))
	kinds := []wire.Kind{wire.KindConsensusForward, wire.KindConsensusPrepare, wire.KindConsensusPromise, wire.KindConsensusAccept,
		wire.KindConsensusAccepted, wire.KindConsensusDecide, wire.KindConsensusLearn}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, err := wire.DecodeTagged[[]testItem](data)
		if err != nil {
			want = nil
		}
		for _, shape := range []string{"a1", "a2"} {
			proc := node.NewProc(0, types.NewTopology(1, 3), &fakeEnv{})
			var applied []testItem
			cfg := BatcherConfig[testItem]{API: proc, Detector: fd.NewOracle(types.NewTopology(1, 3)), Decode: decodeTestItems,
				Fill:    func(func(types.MessageID) bool, int, bool) []testItem { return nil },
				OnApply: func(_ uint64, batch []testItem) { applied = slices.Clone(batch) },
			}
			if shape == "a2" {
				cfg.OnDecide = func(uint64, []testItem) {}
			}
			b := NewBatcher(cfg)
			proc.Register(b.Protocol())
			for _, k := range kinds {
				_, _ = proc.DeliverValue(1, b.Label(), append([]byte{byte(k)}, data...), 0)
			}
			applied = nil
			fresh := NewBatcher(cfg)
			fresh.decided(1, data)
			if fresh.AppliedInstances() != 1 || len(applied) != len(want) {
				t.Fatalf("%s: applied %d instances, a batch of %d; want 1 and %d", shape, fresh.AppliedInstances(), len(applied), len(want))
			}
			for i := range want {
				if applied[i] != want[i] {
					t.Fatalf("%s: applied %v, want %v", shape, applied, want)
				}
			}
		}
	})
}
