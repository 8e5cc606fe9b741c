package statesync

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"wanamcast/internal/network"
	"wanamcast/internal/node"
	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

// The toy algorithm: a record is a number, the applied sequence is the
// numbers 0, 1, 2, …, and the tail is a string naming who shipped it.
var toyCodec = Codec[uint64, string]{
	AppendRec:  wire.AppendUvarint,
	DecodeRec:  wire.Uvarint,
	AppendTail: wire.AppendString,
	DecodeTail: wire.String,
}

type toyResp = Resp[uint64, string]

func init() { RegisterResp(wire.Kind(250), toyCodec) }

// toy is one endpoint of the toy algorithm.
type toy struct {
	eng  *Engine[uint64, string]
	log  []uint64 // the applied sequence
	mute bool     // answer nothing (the test feeds the requester by hand)
	drop func() bool

	reqs     []uint64 // the From of every request received
	adopted  []string
	resumeAt []int // len(log) at each Resume
	synced   int
	failed   int
}

func (t *toy) Proto() string { return "toy" }
func (t *toy) Start()        {}

func (t *toy) Handlers() []node.Handler {
	return Handlers(func(t *toy) *Engine[uint64, string] { return t.eng })
}

// tap sees every message before t's engine: it counts the requests and
// drops what t is set to drop.
func (t *toy) tap(_ types.ProcessID, body any, deliver func()) {
	switch m := body.(type) {
	case Req:
		t.reqs = append(t.reqs, m.From)
		if t.mute {
			return
		}
	case toyResp:
		if t.drop != nil && t.drop() {
			return
		}
	}
	deliver()
}

// apply appends the next record, as the algorithm's own delivery would.
func (t *toy) apply(rec uint64) {
	t.log = append(t.log, rec)
	t.eng.Record(rec)
}

type rig struct {
	rt   *node.Runtime
	toys []*toy
}

// newRig builds one group of per members on the sim runtime; member p starts
// with the records 0..have[p]−1 applied and keeps at most archive of them.
func newRig(per, batch, archive int, have ...int) *rig {
	topo := types.NewTopology(1, per)
	r := &rig{rt: node.NewRuntime(topo, network.Model{IntraGroup: time.Millisecond}, 1, nil)}
	for _, p := range topo.AllProcesses() {
		t := &toy{}
		t.eng = New(Config[uint64, string]{
			API:   r.rt.Proc(p),
			Label: "toy",
			Batch: batch,
			Codec: toyCodec,
			Pos:   func() uint64 { return uint64(len(t.log)) },
			Apply: t.apply,
			Tail:  func() string { return "tail of " + p.String() },
			Adopt: func(tail string) { t.adopted = append(t.adopted, tail) },
			Resume: func() {
				t.resumeAt = append(t.resumeAt, len(t.log))
			},
			Options: Options{
				Archive:      archive,
				OnSynced:     func() { t.synced++ },
				OnSyncFailed: func() { t.failed++ },
			},
		})
		for i := 0; i < have[p]; i++ {
			t.apply(uint64(i))
		}
		r.rt.Proc(p).Register(t)
		r.rt.Proc(p).Tap(t.tap)
		r.toys = append(r.toys, t)
	}
	r.rt.Start()
	return r
}

func (r *rig) at(d time.Duration, fn func()) { r.rt.Scheduler().At(d, fn) }

func seq(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(i)
	}
	return out
}

// caughtUp asserts that t finished exactly one transfer with the first n
// records applied, in order.
func caughtUp(t *testing.T, who string, ty *toy, n int) {
	t.Helper()
	if !slices.Equal(ty.log, seq(n)) {
		t.Errorf("%s: applied %v, want 0..%d in order", who, ty.log, n-1)
	}
	if ty.eng.Gated() || ty.synced != 1 || !slices.Equal(ty.resumeAt, []int{n}) {
		t.Errorf("%s: gated=%v synced=%d resumed at %v, want one resume at %d",
			who, ty.eng.Gated(), ty.synced, ty.resumeAt, n)
	}
}

func TestEngine(t *testing.T) {
	const second = time.Second
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"more than two batches behind: consecutive chunks, tail adopted once", func(t *testing.T) {
			r := newRig(3, 4, 0, 0, 10, 10)
			r.at(0, r.toys[0].eng.Start)
			r.rt.RunUntil(second)
			caughtUp(t, "requester", r.toys[0], 10)
			if len(r.toys[0].adopted) != 1 {
				t.Errorf("adopted %v, want exactly one tail", r.toys[0].adopted)
			}
			// Only the answer that made progress asked again, and nothing was
			// asked after the catch-up: three chunks, three requests per peer.
			for _, p := range []int{1, 2} {
				if !slices.Equal(r.toys[p].reqs, []uint64{0, 4, 8}) {
					t.Errorf("peer %d served requests from %v, want [0 4 8]", p, r.toys[p].reqs)
				}
			}
		}},
		{"TooFar is terminal", func(t *testing.T) {
			// Archive 4: of their 20 records the peers still hold 16..19.
			r := newRig(3, 4, 4, 0, 20, 20)
			r.at(0, r.toys[0].eng.Start)
			r.rt.RunUntil(second)
			req := r.toys[0]
			if req.failed != 1 {
				t.Errorf("OnSyncFailed fired %d times for two TooFar answers, want 1", req.failed)
			}
			if !req.eng.Gated() || req.synced != 0 || len(req.log) != 0 {
				t.Errorf("gated=%v synced=%d applied=%v: an abandoned transfer must stay shut and empty",
					req.eng.Gated(), req.synced, req.log)
			}
			if len(r.toys[1].reqs) != 1 {
				t.Errorf("peer saw %d requests in 1 s, want 1: the retry timer must stop", len(r.toys[1].reqs))
			}
		}},
		{"every peer Busy with nothing newer: whole-group restart", func(t *testing.T) {
			r := newRig(3, 4, 0, 5, 5, 5)
			for _, ty := range r.toys {
				r.at(0, ty.eng.Start)
			}
			r.rt.RunUntil(second)
			for p, ty := range r.toys {
				caughtUp(t, types.ProcessID(p).String(), ty, 5)
				if len(ty.adopted) != 0 {
					t.Errorf("%d adopted %v from a peer that was itself catching up", p, ty.adopted)
				}
			}
		}},
		{"a Busy peer that is ahead: keep pulling", func(t *testing.T) {
			r := newRig(3, 4, 0, 3, 9, 3)
			for _, ty := range r.toys {
				r.at(0, ty.eng.Start)
			}
			r.rt.RunUntil(second)
			// p1 hears two Busy peers behind it and resumes on the spot; the
			// other two must not take "everyone is Busy" for "nobody holds
			// more" while p1 is ahead: they resume only at its 9 records.
			for p, ty := range r.toys {
				caughtUp(t, types.ProcessID(p).String(), ty, 9)
			}
			if len(r.toys[1].adopted) != 0 {
				t.Errorf("the most advanced member adopted %v", r.toys[1].adopted)
			}
		}},
		{"a 150 ms partition is ridden out", func(t *testing.T) {
			r := newRig(3, 4, 0, 0, 6, 6)
			for _, q := range []types.ProcessID{1, 2} {
				r.rt.Fabric().SeverBidi(0, q)
			}
			r.at(0, r.toys[0].eng.Start)
			r.at(150*time.Millisecond, r.rt.Fabric().HealAll)
			r.rt.RunUntil(149 * time.Millisecond)
			if got := r.toys[0].log; len(got) != 0 {
				t.Fatalf("applied %v across a severed link", got)
			}
			r.rt.RunUntil(second)
			// The parked first request and the 100 ms retry both get through
			// at the heal; their answers repeat each other.
			caughtUp(t, "requester", r.toys[0], 6)
			if len(r.toys[0].adopted) != 1 {
				t.Errorf("adopted %v, want exactly one tail", r.toys[0].adopted)
			}
		}},
		{"a dropped answer is recovered by the retry", func(t *testing.T) {
			r := newRig(3, 4, 0, 0, 3, 3)
			r.toys[0].drop = func() bool { return r.rt.Now() < 50*time.Millisecond }
			r.at(0, r.toys[0].eng.Start)
			r.rt.RunUntil(99 * time.Millisecond)
			if !r.toys[0].eng.Gated() || len(r.toys[0].log) != 0 {
				t.Fatalf("finished without an answer")
			}
			r.rt.RunUntil(second)
			caughtUp(t, "requester", r.toys[0], 3)
			if !slices.Equal(r.toys[1].reqs, []uint64{0, 0}) {
				t.Errorf("peer saw requests from %v, want the first and one retry", r.toys[1].reqs)
			}
		}},
		{"stale, repeated and reordered answers change nothing", func(t *testing.T) {
			r := newRig(2, 4, 0, 2, 0)
			req, peer := r.toys[0], r.toys[1]
			peer.mute = true
			feed := func(at time.Duration, m toyResp) {
				r.at(at, func() { r.rt.Proc(0).Deliver(1, req.Proto(), m, 0) })
			}
			tail := "late tail"
			feed(0, toyResp{Base: 2, Recs: []uint64{2, 3}, Next: 4, Tail: &tail}) // before Start
			r.at(time.Millisecond, req.eng.Start)
			feed(2*time.Millisecond, toyResp{Base: 5, Recs: []uint64{5, 6}, Next: 7}) // a gap ahead
			feed(3*time.Millisecond, toyResp{Base: 0, Recs: []uint64{7, 7}, Next: 2}) // already applied
			r.rt.RunUntil(10 * time.Millisecond)
			if !slices.Equal(req.log, seq(2)) || !req.eng.Gated() || len(req.adopted) != 0 {
				t.Fatalf("after stale answers: applied %v gated=%v adopted %v", req.log, req.eng.Gated(), req.adopted)
			}
			if len(peer.reqs) != 1 {
				t.Errorf("answers that made no progress triggered %d extra requests", len(peer.reqs)-1)
			}
			// Out of order: the second chunk, then the first, then the second again.
			feed(11*time.Millisecond, toyResp{Base: 4, Recs: []uint64{4}, Next: 5, Tail: &tail})
			feed(12*time.Millisecond, toyResp{Base: 2, Recs: []uint64{2, 3}, Next: 5})
			feed(13*time.Millisecond, toyResp{Base: 4, Recs: []uint64{4}, Next: 5, Tail: &tail})
			r.rt.RunUntil(20 * time.Millisecond)
			caughtUp(t, "requester", req, 5)
			// After the finish: nothing is applied or adopted again.
			feed(21*time.Millisecond, toyResp{Base: 5, Recs: []uint64{5}, Next: 6, Tail: &tail})
			feed(22*time.Millisecond, toyResp{Base: 0, TooFar: true})
			r.rt.RunUntil(second)
			caughtUp(t, "requester", req, 5)
			if len(req.adopted) != 1 || req.failed != 0 {
				t.Errorf("adopted %v, failed %d after the finish; want one tail, no failure", req.adopted, req.failed)
			}
		}},
		{"a single-member group finishes immediately", func(t *testing.T) {
			r := newRig(1, 4, 0, 3)
			r.toys[0].eng.Arm()
			if r.toys[0].eng.Gated() {
				t.Error("armed a gate nobody could lift")
			}
			r.toys[0].eng.Start()
			caughtUp(t, "the member", r.toys[0], 3)
			if r.rt.RunUntil(second) != 0 {
				t.Error("a lone member sent or scheduled something")
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, c.run)
	}
}

// TestArmGatesUntilFinish: the gate shuts at the end of recovery, before
// Start, and only a finished transfer lifts it.
func TestArmGatesUntilFinish(t *testing.T) {
	r := newRig(2, 4, 0, 1, 1)
	req := r.toys[0]
	req.eng.Arm()
	if !req.eng.Gated() {
		t.Fatal("Arm left the gate open with a peer present")
	}
	r.at(0, req.eng.Start)
	r.rt.RunUntil(time.Second)
	caughtUp(t, "requester", req, 1)
}

// TestArchiveAndFrameRoundTrip pins the two encodings the engine owns: the
// archive section of a snapshot and the answer frame.
func TestArchiveAndFrameRoundTrip(t *testing.T) {
	r := newRig(1, 4, 0, 7)
	snap := r.toys[0].eng.AppendArchive(nil)
	fresh := newRig(1, 4, 0, 0).toys[0]
	fresh.log = seq(7)
	rest, err := fresh.eng.RestoreArchive(append(snap, 0xAB))
	if err != nil || len(rest) != 1 || fresh.eng.Base() != 0 {
		t.Fatalf("restore: rest=%v err=%v base=%d", rest, err, fresh.eng.Base())
	}
	if got := fresh.eng.AppendArchive(nil); !slices.Equal(got, snap) {
		t.Fatalf("archive does not round-trip: %v vs %v", got, snap)
	}

	tail := "t"
	for _, m := range []toyResp{
		{Base: 3, Recs: []uint64{3, 4}, Next: 9},
		{Base: 8, Recs: []uint64{8}, Next: 9, Tail: &tail},
		{Base: 1, Next: 40, TooFar: true, Busy: true},
	} {
		got, rest, err := wire.DecodeValue(wire.AppendValue(nil, m))
		if err != nil || len(rest) != 0 || !reflect.DeepEqual(got, m) {
			t.Errorf("frame %+v decoded as %+v (rest %v, err %v)", m, got, rest, err)
		}
	}
	if got, _, err := wire.DecodeValue(wire.AppendValue(nil, Req{From: 12})); err != nil || got != (Req{From: 12}) {
		t.Errorf("request decoded as %+v (err %v)", got, err)
	}
	ids := map[types.MessageID]bool{{Origin: 2, Seq: 1}: true, {Origin: 0, Seq: 9}: true}
	back := map[types.MessageID]bool{}
	if _, err := DecodeIDSet(AppendIDSet(nil, ids), back); err != nil || !reflect.DeepEqual(ids, back) {
		t.Errorf("id set decoded as %v (err %v)", back, err)
	}
}
