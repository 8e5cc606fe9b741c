package group_test

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"wanamcast/internal/abcast"
	"wanamcast/internal/amcast"
	"wanamcast/internal/consensus"
	"wanamcast/internal/group"
	"wanamcast/internal/network"
	"wanamcast/internal/node"
	"wanamcast/internal/rmcast"
	"wanamcast/internal/statesync"
	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

// item is a minimal ordered item. An ordering engine requires a wire codec
// for its batches, so []item has one, under a kind no package registers.
type item struct{ ID types.MessageID }

func (it item) ItemID() types.MessageID { return it.ID }

const kindItems wire.Kind = 251

func init() {
	wire.Register(kindItems, appendItems, func(data []byte) ([]item, []byte, error) { return decodeItems(nil, data) })
}

func appendItems(buf []byte, items []item) []byte {
	buf = wire.AppendUvarint(buf, uint64(len(items)))
	for _, it := range items {
		buf = it.ID.AppendTo(buf)
	}
	return buf
}

func decodeItems(into []item, data []byte) ([]item, []byte, error) {
	d := wire.Decoder{Data: data}
	out := into[:0]
	for n := wire.Read(&d, wire.SliceLen); n > 0 && d.Err == nil; n-- {
		out = append(out, item{ID: wire.Read(&d, types.DecodeMessageID)})
	}
	return out, d.Data, d.Err
}

// retry is the rig's consensus retry interval: the pull tick's period.
const retry = 10 * time.Millisecond

// rig is one endpoint, at p1 of two groups of three (p0–p2 | p3–p5), on the
// simulator. Its rule's pull does what A1's and A2's do: Due for each item
// waiting on group 1, and Ask when due. Nothing is ever proposed.
type rig struct {
	rt      *node.Runtime
	e       *group.Endpoint[item, struct{}, struct{}]
	waiting map[string]uint64 // item → the tick it began waiting at
	asks    []string          // "tick item n→member", in order
}

func newRig(pipeline int) *rig {
	rt := node.NewRuntime(types.NewTopology(2, 3), network.Model{IntraGroup: time.Millisecond, InterGroup: 20 * time.Millisecond}, 1, nil)
	r := &rig{rt: rt, waiting: make(map[string]uint64)}
	host := rt.Proc(1)
	r.e = group.New(group.Config{Host: host, Detector: rt.Oracle(), ConsensusRetry: retry, Pipeline: pipeline},
		group.Rule{Label: "t", Mode: rmcast.ModeDirect, Copies: 1, Reship: func() {}, Pull: r.pull},
		consensus.BatcherConfig[item]{
			Fill:    func(func(types.MessageID) bool, int, bool) []item { return nil },
			Decode:  decodeItems,
			OnApply: func(uint64, []item) {},
		},
		statesync.Config[struct{}, struct{}]{Pos: func() uint64 { return 0 }})
	return r
}

func (r *rig) pull() {
	names := make([]string, 0, len(r.waiting))
	for name := range r.waiting {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		if n := r.e.Due(r.waiting[name]); n > 0 {
			r.asks = append(r.asks, fmt.Sprintf("%d %s %d→p%d", r.rt.Now()/retry, name, n, r.e.Ask(1, n)))
		}
	}
}

// at runs fn on the endpoint's process at virtual time d.
func (r *rig) at(d time.Duration, fn func()) { r.rt.Proc(1).After(d, fn) }

// TestPullCadence pins when a waiting item asks and whom: an item waiting
// since tick t asks at t+8, t+16, t+24 (PullAfter ticks apart), each time the
// next member of the group it lacks, from an offset of the asker's ID; the
// tick runs while something waits and stops at the first tick after nothing
// does.
func TestPullCadence(t *testing.T) {
	r := newRig(2)
	if n := r.rt.RunUntil(time.Second); n != 0 {
		t.Fatalf("an endpoint nothing waits at ran %d events", n)
	}
	r = newRig(2)
	r.waiting["a"] = r.e.Wait()
	r.at(35*time.Millisecond, func() { r.waiting["b"] = r.e.Wait() }) // during tick 3
	r.at(245*time.Millisecond, func() { clear(r.waiting) })
	n := r.rt.RunUntil(time.Second)
	want := []string{"8 a 1→p5", "11 b 1→p5", "16 a 2→p3", "19 b 2→p3", "24 a 3→p4"}
	if !slices.Equal(r.asks, want) {
		t.Fatalf("asks %q, want %q", r.asks, want)
	}
	if n != 25+2 {
		t.Fatalf("%d events in a second, want 27: ticks 1–25 (tick 25 finds nothing waiting) and the two calls", n)
	}
}

// TestNoPullAtPipelineOne: at Pipeline ≤ 1, the paper's listings, Wait arms
// nothing and nothing is ever due.
func TestNoPullAtPipelineOne(t *testing.T) {
	for _, pipeline := range []int{0, 1} {
		r := newRig(pipeline)
		since := r.e.Wait()
		if n := r.rt.RunUntil(time.Second); n != 0 {
			t.Errorf("Pipeline %d: Wait armed %d events", pipeline, n)
		}
		if n := r.e.Due(since); n != 0 {
			t.Errorf("Pipeline %d: an item is due for its ask %d", pipeline, n)
		}
	}
}

// TestA1AndA2OnOneProcessShareItsIDs: an A1 and an A2 endpoint built on one
// process with no host between them draw their cast IDs from the process,
// so no two of their casts share an ID.
func TestA1AndA2OnOneProcessShareItsIDs(t *testing.T) {
	rt := node.NewRuntime(types.NewTopology(2, 1), network.Model{IntraGroup: time.Millisecond, InterGroup: 10 * time.Millisecond}, 1, nil)
	cfg := group.Config{Host: rt.Proc(0), Detector: rt.Oracle()}
	a1, a2 := amcast.New(cfg), abcast.New(cfg)
	rt.Start()
	seen := make(map[types.MessageID]string)
	note := func(id types.MessageID, by string) {
		if was, dup := seen[id]; dup {
			t.Errorf("%s issued %v, which %s issued before", by, id, was)
		}
		seen[id] = by
	}
	for range 3 {
		note(a1.AMCast([]byte("m"), types.NewGroupSet(0, 1)), "A1")
		note(a2.ABCast([]byte("b")), "A2")
	}
}
