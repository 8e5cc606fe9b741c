package tcp

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"net"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"wanamcast/internal/abcast"
	"wanamcast/internal/amcast"
	"wanamcast/internal/config"
	"wanamcast/internal/consensus"
	"wanamcast/internal/metrics"
	"wanamcast/internal/node"
	"wanamcast/internal/rmcast"
	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

// wireLog plays a peer that never answers: it accepts connections on addr,
// one after the other, and records every byte written to them.
type wireLog struct {
	mu  sync.Mutex
	b   []byte
	ln  net.Listener
	end chan struct{}
}

func listenLog(t *testing.T, addr string) *wireLog {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	w := &wireLog{ln: ln, end: make(chan struct{})}
	go func() {
		defer close(w.end)
		buf := make([]byte, 64<<10)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			for {
				n, err := c.Read(buf)
				w.mu.Lock()
				w.b = append(w.b, buf[:n]...)
				w.mu.Unlock()
				if err != nil {
					break
				}
			}
			c.Close()
		}
	}()
	t.Cleanup(func() { ln.Close(); <-w.end })
	return w
}

// bytes returns what was written so far once it holds n whole frames.
func (w *wireLog) frames(t *testing.T, n int) []byte {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		w.mu.Lock()
		b := bytes.Clone(w.b)
		w.mu.Unlock()
		got, rest := 0, b
		for len(rest) >= 4 && uint64(len(rest)-4) >= uint64(binary.BigEndian.Uint32(rest)) {
			rest = rest[4+binary.BigEndian.Uint32(rest):]
			got++
		}
		if got == n && len(rest) == 0 {
			return b
		}
		if got > n {
			t.Fatalf("the peer read %d frames, want %d", got, n)
		}
	}
	t.Fatalf("the peer never read %d frames", n)
	return nil
}

// sendRig is an unstarted runtime hosting p0 of two groups of one, whose
// sends reach the rest of the test by hand: p0 sends from the test
// goroutine, which no lane shares while the runtime is unstarted.
func sendRig(t *testing.T, port int) (*Runtime, *node.Proc) {
	rt := New(Config{Topo: types.NewTopology(2, 1), Config: config.Config{BasePort: port, Local: []types.ProcessID{0}}})
	t.Cleanup(rt.Stop)
	return rt, rt.Proc(0)
}

// TestSendWireBytesPinned pins the bytes a link writes for a fixed sequence
// of sends: three frames held by a severed link and written, once healed, in
// one batch envelope; a lone frame, written plain; an fd frame, plain; and,
// on a second connection after another sever, four frames large enough to go
// out deflated. The bytes were captured when every link's writer encoded the
// values its senders queued; now its senders encode them, once.
func TestSendWireBytesPinned(t *testing.T) {
	const port = 22700
	log := listenLog(t, "127.0.0.1:22701")
	rt, p := sendRig(t, port)
	desc := amcast.Descriptor{ID: types.MessageID{Origin: 0, Seq: 9}, Dest: types.NewGroupSet(0, 1), TS: 4, Payload: []byte("payload")}
	data := func(seq uint64, payload string) rmcast.DataMsg {
		return rmcast.DataMsg{M: rmcast.Message{ID: types.MessageID{Origin: 0, Seq: seq}, Dest: types.NewGroupSet(1), Payload: []byte(payload)}}
	}
	rt.Fabric().Sever(0, 1)
	node.Send(p, 1, "a1.cons", consensus.AcceptedMsg{Instance: 7, Ballot: 2})
	node.Send(p, 1, "a1", amcast.TSMsg{Desc: desc})
	node.Send(p, 1, "a1.rm", data(1, "x"))
	rt.Fabric().Heal(0, 1)
	log.frames(t, 1)
	node.Send(p, 1, "a1.cons", consensus.LearnMsg{Instance: 7})
	log.frames(t, 2)
	node.Send(p, 1, fdProto, heartbeatMsg{Beat: 1234567})
	log.frames(t, 3)
	rt.Fabric().Sever(0, 1)
	for seq := uint64(2); seq < 6; seq++ {
		node.Send(p, 1, "a1.rm", data(seq, strings.Repeat("a payload that deflates well ", 20)))
	}
	rt.Fabric().Heal(0, 1)
	got := log.frames(t, 4)
	want, err := os.ReadFile("testdata/sends.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("the link wrote\n%x\nwant\n%x", got, want)
	}
}

// discard plays a peer that reads and drops everything written to it.
func discard(t *testing.T, addr string) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		buf := make([]byte, 64<<10)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			for err == nil {
				_, err = c.Read(buf)
			}
			c.Close()
		}
	}()
	t.Cleanup(func() { ln.Close() })
}

// TestSendZeroAllocs pins what a send costs on the live runtime once its
// buffers are warm. On the sending lane, node.Multicast of an AcceptedMsg, a
// TSMsg or a BundleMsg to five remote peers encodes the message once, from
// its static type, and copies the bytes into each peer's link: nothing is
// allocated. A link's writer then writes an envelope of sixteen of them
// without allocating either. (Before, the lane boxed every body, 1
// allocation, and each of the five writers encoded it again.)
func TestSendZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the pin holds without it")
	}
	desc := amcast.Descriptor{ID: types.MessageID{Origin: 0, Seq: 9}, Dest: types.NewGroupSet(0, 1), TS: 4, Payload: []byte("payload")}
	records := []abcast.Record{{ID: types.MessageID{Origin: 0, Seq: 1}, Payload: []byte("one")}, {ID: types.MessageID{Origin: 2, Seq: 5}, Payload: []byte("two")}}
	for i, c := range []struct {
		name string
		send func(p *node.Proc, tos []types.ProcessID)
	}{
		{"an AcceptedMsg", func(p *node.Proc, tos []types.ProcessID) {
			node.Multicast(p, tos, "sink", consensus.AcceptedMsg{Instance: 7, Ballot: 2})
		}},
		{"a TSMsg", func(p *node.Proc, tos []types.ProcessID) { node.Multicast(p, tos, "sink", amcast.TSMsg{Desc: desc}) }},
		{"a BundleMsg", func(p *node.Proc, tos []types.ProcessID) {
			node.Multicast(p, tos, "sink", abcast.BundleMsg{Round: 3, Set: records})
		}},
	} {
		// The lane: links without writers, emptied after each send.
		rt := New(Config{Topo: types.NewTopology(2, 3), Config: config.Config{BasePort: 22710}})
		peers := []types.ProcessID{1, 2, 3, 4, 5}
		for _, q := range peers {
			rt.links[connKey{0, q}] = &link{rt: rt, from: 0, to: q, wake: make(chan struct{}, 1)}
		}
		send := func() {
			c.send(rt.Proc(0), peers)
			for _, q := range peers {
				rt.links[connKey{0, q}].out.reset()
			}
		}
		for range 16 {
			send()
		}
		if n := testing.AllocsPerRun(200, send); n != 0 {
			t.Errorf("%s to five peers: %.1f allocations on the sending lane, want 0", c.name, n)
		}
		for range 16 { // what the writer below is handed, each time
			c.send(rt.Proc(0), peers[:1])
		}
		subs := rt.links[connKey{0, 1}].out.subs
		if len(subs) != 16 {
			t.Fatalf("%s: %d of 16 sends encoded", c.name, len(subs))
		}

		// The writer: an envelope of the sixteen, queued at once, to a peer
		// that reads and discards.
		port := 22720 + 2*i
		col := &metrics.Collector{}
		wrt := New(Config{Topo: types.NewTopology(2, 1), Recorder: col, Config: config.Config{BasePort: port, Local: []types.ProcessID{0}}})
		t.Cleanup(wrt.Stop)
		discard(t, wrt.addr(1))
		l := wrt.link(0, 1)
		envelope := func() {
			want := col.Count(metrics.WireEnvelopesOut) + 1
			l.mu.Lock()
			for _, sub := range subs {
				l.out.add(sub)
			}
			l.mu.Unlock()
			l.signal()
			for deadline := time.Now().Add(5 * time.Second); col.Count(metrics.WireEnvelopesOut) < want; runtime.Gosched() {
				if time.Now().After(deadline) {
					t.Fatalf("%s: the writer wrote nothing", c.name)
				}
			}
		}
		for range 16 {
			envelope()
		}
		if n := testing.AllocsPerRun(200, envelope); n != 0 {
			t.Errorf("%s: the writer made %.1f allocations per envelope of 16, want 0", c.name, n)
		}
		wrt.Stop()
	}
}

// selfSink counts the AcceptedMsgs its process sends itself.
type selfSink struct{ n int }

func (*selfSink) Proto() string            { return "sink" }
func (*selfSink) Start()                   {}
func (*selfSink) Handlers() []node.Handler { return selfSinkHandlers }

var selfSinkHandlers = []node.Handler{node.On(func(s *selfSink, _ types.ProcessID, _ consensus.AcceptedMsg) { s.n++ })}

// TestSelfSendZeroAllocs pins a Multicast whose destinations include the
// sender: the copy to self rides a slot of the sender's pool, posted to its
// own lane, and the lane runs it by handing the handler the value unboxed.
// Encode, post and self-delivery together allocate nothing. (Before, the lane
// carried the copy boxed: 1 allocation.)
func TestSelfSendZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the pin holds without it")
	}
	rt := New(Config{Topo: types.NewTopology(2, 3), Config: config.Config{BasePort: 22710}})
	tos := []types.ProcessID{0, 1, 2, 3, 4, 5}
	for _, q := range tos[1:] {
		rt.links[connKey{0, q}] = &link{rt: rt, from: 0, to: q, wake: make(chan struct{}, 1)}
	}
	sink := &selfSink{}
	rt.Proc(0).Register(sink)
	ln := rt.laneOf[0]
	send := func() {
		node.Multicast(rt.Proc(0), tos, "sink", consensus.AcceptedMsg{Instance: 7, Ballot: 2})
		for _, q := range tos[1:] {
			rt.links[connKey{0, q}].out.reset()
		}
		ev, ok := ln.in.TryPop()
		if !ok {
			t.Fatal("the copy to self was not posted to the sender's lane")
		}
		ln.exec(ev)
	}
	for range 16 {
		send()
	}
	if n := testing.AllocsPerRun(200, send); n != 0 {
		t.Errorf("a Multicast to self and five peers, its self-copy run: %.1f allocations, want 0", n)
	}
	if sink.n != 16+201 {
		t.Fatalf("the sender ran %d of its %d copies to self", sink.n, 16+201)
	}
}

// counter records the int64 bodies it receives, in order.
type counter struct {
	mu   sync.Mutex
	seen []int64
}

func (c *counter) Proto() string { return "count" }
func (c *counter) Start()        {}
func (c *counter) Handlers() []node.Handler {
	return []node.Handler{
		node.On(func(c *counter, _ types.ProcessID, n int64) {
			c.mu.Lock()
			c.seen = append(c.seen, n)
			c.mu.Unlock()
		}),
		node.On(func(*counter, types.ProcessID, []byte) {}), // a paced link's ballast
	}
}

func (c *counter) await(t *testing.T, n int) []int64 {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		c.mu.Lock()
		seen := slices.Clone(c.seen)
		c.mu.Unlock()
		if len(seen) >= n {
			return seen
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	t.Fatalf("received %d frames of %d", len(c.seen), n)
	return nil
}

// pair starts a runtime hosting p0, which the test sends from by hand and
// whose collector counts the wire, and one hosting p1, which counts what it
// receives, of two groups of one.
func pair(t *testing.T, port int, bandwidth int64) (*Runtime, *counter) {
	topo := types.NewTopology(2, 1)
	from := New(Config{Topo: topo, Recorder: &metrics.Collector{}, Config: config.Config{BasePort: port, Bandwidth: bandwidth, Local: []types.ProcessID{0}}})
	to := New(Config{Topo: topo, Config: config.Config{BasePort: port, Bandwidth: bandwidth, Local: []types.ProcessID{1}}})
	c := &counter{}
	to.Proc(1).Register(c)
	for _, rt := range []*Runtime{to, from} {
		if err := rt.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rt.Stop)
	}
	return from, c
}

// pending reports how many protocol frames l holds for its writer to take.
func (l *link) pending() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.out.subs)
}

// TestLinkFIFOAcrossSwaps: two goroutines send on one link while its writer
// swaps the pending buffer out from under them; the peer receives each
// sender's frames complete and in its order.
func TestLinkFIFOAcrossSwaps(t *testing.T) {
	rt, c := pair(t, 22730, 0)
	const n = 2000 // both senders' frames fit the queue: no drops
	var wg sync.WaitGroup
	for s := range int64(2) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var b []byte
			for i := range int64(n) {
				b, _ = wire.AppendSub(b[:0], "count", 0, s<<32|i)
				rt.TransmitEncoded(0, []types.ProcessID{1}, "count", b)
			}
		}()
	}
	wg.Wait()
	next := [2]int64{}
	for _, v := range c.await(t, 2*n) {
		s, i := v>>32, v&(1<<32-1)
		if i != next[s] {
			t.Fatalf("sender %d: frame %d arrived after %d", s, i, next[s]-1)
		}
		next[s]++
	}
	if queue, hold := rt.Drops(); queue[0] != 0 || hold[0] != 0 {
		t.Fatalf("dropped %d frames on the queue and %d on the hold", queue[0], hold[0])
	}
}

// TestSeveredLinkHoldsSendQueueFrames: a severed link holds at most
// sendQueue frames, counts the excess in HoldDrops, and delivers what it
// held once healed.
func TestSeveredLinkHoldsSendQueueFrames(t *testing.T) {
	rt, c := pair(t, 22740, 0)
	rt.Fabric().Sever(0, 1)
	const rounds, per = 5, 1000
	for r := range int64(rounds) {
		rt.Run(0, func() {
			for i := range int64(per) {
				node.Send(rt.Proc(0), 1, "count", r*per+i)
			}
		})
		l := rt.link(0, 1)
		waitFor(t, 5*time.Second, func() bool { return l.pending() == 0 }) // the writer takes them into its hold
	}
	waitFor(t, 5*time.Second, func() bool { _, hold := rt.Drops(); return hold[0] == rounds*per-sendQueue })
	rt.Fabric().Heal(0, 1)
	seen := c.await(t, sendQueue)
	for i, v := range seen {
		if v != int64(i) {
			t.Fatalf("frame %d is %d: the hold keeps the first frames, in order", i, v)
		}
	}
	const marker = 1 << 40 // sent after the heal: FIFO puts it right after the held frames
	rt.Run(0, func() { node.Send(rt.Proc(0), 1, "count", int64(marker)) })
	if seen := c.await(t, sendQueue+1); len(seen) != sendQueue+1 || seen[sendQueue] != marker {
		t.Fatalf("delivered %d frames, the last %d: want the %d held ones, then the marker", len(seen), seen[len(seen)-1], sendQueue)
	}
	if queue, _ := rt.Drops(); queue[0] != 0 {
		t.Fatalf("%d frames dropped on the queue", queue[0])
	}
}

// TestFullLinkCountsSendQueueDrops: while a bandwidth-capped link pays off
// a large frame, its writer takes no protocol frames; the link queues
// sendQueue of them and drops, and counts, the rest.
func TestFullLinkCountsSendQueueDrops(t *testing.T) {
	rt, c := pair(t, 22750, 1000) // 1000 B/s: a 10 kB frame costs ten seconds
	rt.Run(0, func() { node.Send(rt.Proc(0), 1, "count", int64(0)) })
	c.await(t, 1)
	ballast := make([]byte, 10_000)
	rand.New(rand.NewSource(1)).Read(ballast) // incompressible
	rt.Run(0, func() { node.Send(rt.Proc(0), 1, "count", ballast) })
	l := rt.link(0, 1)
	waitFor(t, 5*time.Second, func() bool { return rt.rec.Count(metrics.WireEnvelopesOut) == 2 && l.pending() == 0 })
	rt.Run(0, func() {
		for i := range int64(sendQueue + 10) {
			node.Send(rt.Proc(0), 1, "count", i)
		}
	})
	if queue, hold := rt.Drops(); queue[0] != 10 || hold[0] != 0 || l.pending() != sendQueue {
		t.Fatalf("%d frames pending, %d dropped on the queue and %d on the hold; want %d, 10 and 0", l.pending(), queue[0], hold[0], sendQueue)
	}
}

// TestPacedLinkPassesHeartbeatsAndGrants: a bandwidth-capped link owing ten
// seconds of debt still writes heartbeats and a lease grant at once, each a
// plain frame, while a protocol frame queued before them waits out the debt.
// Routed through the pacing queue, they would reach the peer after that frame
// and inside its envelope, ten seconds late: congestion would read as a crash
// to Ω and to the lease. This is the property the live saturation run of the
// root package exercises, asserted on frame order rather than on wall-clock
// suspicion counts.
func TestPacedLinkPassesHeartbeatsAndGrants(t *testing.T) {
	const port = 22780
	log := listenLog(t, "127.0.0.1:22781")
	rt := New(Config{Topo: types.NewTopology(2, 1), Config: config.Config{BasePort: port, Bandwidth: 1000, Local: []types.ProcessID{0}}})
	t.Cleanup(rt.Stop)
	p := rt.Proc(0)
	ballast := make([]byte, 10_000) // 1000 B/s: ten seconds of debt
	rand.New(rand.NewSource(1)).Read(ballast)
	node.Send(p, 1, "a1.rm", ballast)
	log.frames(t, 1)
	l := rt.link(0, 1)
	node.Send(p, 1, "a1.cons", consensus.LearnMsg{Instance: 7})
	node.Send(p, 1, fdProto, heartbeatMsg{Beat: 99})
	log.frames(t, 2) // the writer has taken the heartbeat: the grant needs a wake of its own
	node.Send(p, 1, fdProto, leaseGrantMsg{Beat: 99})
	node.Send(p, 1, fdProto, heartbeatMsg{Beat: 100})
	got := log.frames(t, 4)
	if n := l.pending(); n != 1 {
		t.Fatalf("%d protocol frames pending, want the one queued before the fd frames", n)
	}
	for _, want := range []wire.Kind{wire.KindBatch, wire.KindHeartbeat, wire.KindLeaseGrant, wire.KindHeartbeat} {
		size := binary.BigEndian.Uint32(got)
		f, value, err := wire.FrameValue(got[4 : 4+size])
		if err != nil || wire.Kind(value[0]) != want || want != wire.KindBatch && f.Proto != fdProto {
			t.Fatalf("frame %v of kind %d, %v; want a plain %q frame of kind %d", f, value[0], err, fdProto, want)
		}
		got = got[4+size:]
	}
}

// TestUnencodableBodyDroppedAtSender: a body even gob cannot encode is
// dropped by its sender, with a trace line; the frames either side of it are
// delivered, no frame fails at the receiver, and the link carries on.
func TestUnencodableBodyDroppedAtSender(t *testing.T) {
	topo := types.NewTopology(2, 1)
	var mu sync.Mutex
	var lines []string
	trace := func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, format)
		mu.Unlock()
	}
	from := New(Config{Topo: topo, Config: config.Config{BasePort: 22760, Local: []types.ProcessID{0}}, Trace: trace})
	to := New(Config{Topo: topo, Config: config.Config{BasePort: 22760, Local: []types.ProcessID{1}}, Trace: trace})
	c := &counter{}
	to.Proc(1).Register(c)
	for _, rt := range []*Runtime{to, from} {
		if err := rt.Start(); err != nil {
			t.Fatal(err)
		}
		defer rt.Stop()
	}
	from.Run(0, func() {
		p := from.Proc(0)
		node.Send(p, 1, "count", int64(1))
		node.Send(p, 1, "count", make(chan int))
		node.Send(p, 1, "count", int64(3))
	})
	if seen := c.await(t, 2); !slices.Equal(seen, []int64{1, 3}) {
		t.Fatalf("delivered %v, want [1 3]", seen)
	}
	from.Run(0, func() { node.Send(from.Proc(0), 1, "count", int64(4)) })
	if seen := c.await(t, 3); !slices.Equal(seen, []int64{1, 3, 4}) {
		t.Fatalf("delivered %v, want [1 3 4]", seen)
	}
	mu.Lock()
	defer mu.Unlock()
	traced := func(what string) bool {
		return slices.ContainsFunc(lines, func(l string) bool { return strings.Contains(l, what) })
	}
	if !traced("encode error") || traced("decode error") {
		t.Fatalf("want an encode error at the sender and no decode error at the receiver: %q", lines)
	}
}

// TestRefusedDialBacksOffBriefly: a peer that is not listening yet when the
// first frame for it is sent gets the frames sent once it listens within a
// few short backoffs — 10 ms after the first refused dial, doubling — not
// after a dial timeout's blackout, during which every frame was dropped.
func TestRefusedDialBacksOffBriefly(t *testing.T) {
	const port = 22790
	refused := make(chan struct{}, 1)
	rt := New(Config{Topo: types.NewTopology(2, 1), Config: config.Config{BasePort: port, Local: []types.ProcessID{0}},
		Trace: func(format string, _ ...any) {
			if strings.HasPrefix(format, "dial error") {
				select {
				case refused <- struct{}{}:
				default:
				}
			}
		}})
	t.Cleanup(rt.Stop)
	p := rt.Proc(0)
	node.Send(p, 1, "sink", "refused")
	select {
	case <-refused:
	case <-time.After(5 * time.Second):
		t.Fatal("the dial to a closed port never failed")
	}
	log := listenLog(t, "127.0.0.1:22791")
	t.Cleanup(rt.Stop) // before the log's cleanup waits for the connection to end
	listening := time.Now()
	for arrived := false; !arrived; time.Sleep(2 * time.Millisecond) {
		if time.Since(listening) > 5*time.Second {
			t.Fatal("no frame reached the peer in the 5 s after it listened")
		}
		node.Send(p, 1, "sink", "after")
		log.mu.Lock()
		arrived = len(log.b) > 0
		log.mu.Unlock()
	}
	if took := time.Since(listening); took > 200*time.Millisecond {
		t.Fatalf("the first frame reached the peer %v after it listened, want under 200 ms", took)
	}
}
