package wanamcast

import (
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

// recordDeliveries collects l's deliveries through OnDeliver, so call it
// before Start. The returned func snapshots them, each process's in its
// delivery order.
func recordDeliveries(l *LiveCluster) func() []Delivery {
	var mu sync.Mutex
	var log []Delivery
	l.OnDeliver(func(p ProcessID, id MessageID, payload any) {
		mu.Lock()
		log = append(log, Delivery{Process: p, ID: id, Payload: payload})
		mu.Unlock()
	})
	return func() []Delivery {
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(log)
	}
}

func TestLiveClusterBroadcastAndMulticast(t *testing.T) {
	l := NewLiveCluster(LiveConfig{Groups: 2, PerGroup: 2, BasePort: 24000, WANDelay: 15 * time.Millisecond})
	deliveries := recordDeliveries(l)
	if err := l.Start(); err != nil {
		t.Fatal(err)
	}
	defer l.Stop()

	bid := l.Broadcast(l.Process(0, 0), "hello-live")
	if !l.WaitDelivered(bid, 4, 10*time.Second) {
		t.Fatal("broadcast not delivered everywhere")
	}
	mid := l.Multicast(l.Process(0, 1), "only-g0", 0)
	if !l.WaitDelivered(mid, 2, 10*time.Second) {
		t.Fatal("multicast not delivered in its group")
	}
	// Give stray deliveries a moment, then check the multicast stayed in
	// group 0.
	time.Sleep(100 * time.Millisecond)
	for _, d := range deliveries() {
		if d.ID == mid && d.Process >= 2 {
			t.Fatalf("multicast delivered outside its group at %v", d.Process)
		}
	}
}

func TestLiveClusterDoubleStart(t *testing.T) {
	l := NewLiveCluster(LiveConfig{Groups: 1, PerGroup: 1, BasePort: 24100})
	if err := l.Start(); err != nil {
		t.Fatal(err)
	}
	defer l.Stop()
	if err := l.Start(); err == nil {
		t.Fatal("second Start must fail")
	}
}

// TestLiveClusterRetainDeliveries: DeliveredCount reads the collector's
// per-cast records, whose window RetainDeliveries sizes — max(8×retain,
// 4096) casts, 65 536 when unset — so a small retain still answers exactly
// for every recent cast, and a message never cast counts 0.
func TestLiveClusterRetainDeliveries(t *testing.T) {
	for retain, want := range map[int]int{0: 1 << 16, 4: 4096, 1024: 8192} {
		l := NewLiveCluster(LiveConfig{Groups: 1, PerGroup: 2, RetainDeliveries: retain})
		if got := l.col.CastWindow; got != want {
			t.Errorf("RetainDeliveries %d: a window of %d casts, want %d", retain, got, want)
		}
		l.Stop()
	}

	l := NewLiveCluster(LiveConfig{Groups: 1, PerGroup: 2, BasePort: 24300, RetainDeliveries: 4})
	if err := l.Start(); err != nil {
		t.Fatal(err)
	}
	defer l.Stop()
	var ids []MessageID
	for i := 0; i < 12; i++ {
		ids = append(ids, l.Broadcast(l.Process(0, i%2), i))
	}
	for _, id := range ids {
		if !l.WaitDelivered(id, 2, 10*time.Second) {
			t.Fatalf("%v delivered by %d of 2", id, l.DeliveredCount(id))
		}
	}
	for _, id := range ids {
		if got, col := l.DeliveredCount(id), l.col.Delivered(id); got != 2 || col != 2 {
			t.Fatalf("DeliveredCount(%v) = %d, the collector's %d, want 2", id, got, col)
		}
	}
	if got := l.DeliveredCount(MessageID{Origin: 0, Seq: 1 << 40}); got != 0 {
		t.Fatalf("DeliveredCount of a message never cast = %d", got)
	}
}

// TestDeliveryTakesNoClusterLock: with Check off an A-Delivery takes no
// cluster-wide lock, so a broadcast cast and delivered while l.mu is held
// still reaches both processes.
func TestDeliveryTakesNoClusterLock(t *testing.T) {
	l := NewLiveCluster(LiveConfig{Groups: 1, PerGroup: 2, BasePort: 24900})
	if err := l.Start(); err != nil {
		t.Fatal(err)
	}
	defer l.Stop()
	delivered := make(chan bool, 1)
	l.mu.Lock()
	go func() {
		id := l.Broadcast(l.Process(0, 0), "under the lock")
		delivered <- l.WaitDelivered(id, 2, 5*time.Second)
	}()
	var ok bool
	select {
	case ok = <-delivered:
	case <-time.After(6 * time.Second):
	}
	l.mu.Unlock()
	if !ok {
		t.Fatal("the broadcast was not delivered to both processes while l.mu was held")
	}
}

func TestLiveClusterCrashSurvivors(t *testing.T) {
	l := NewLiveCluster(LiveConfig{Groups: 2, PerGroup: 3, BasePort: 24200, WANDelay: 10 * time.Millisecond})
	if err := l.Start(); err != nil {
		t.Fatal(err)
	}
	defer l.Stop()
	l.Crash(l.Process(0, 2))
	id := l.Broadcast(l.Process(0, 0), "after-crash")
	if !l.WaitDelivered(id, 5, 15*time.Second) {
		t.Fatal("survivors did not deliver")
	}
}

// TestLiveClusterReportsUndecodablePayloads: the ordering core carries a
// payload as bytes and never parses them, so bytes that DecodeValue rejects —
// a gob blob garbled past its length, cast around the edge's encoding — are
// delivered like any other. The edge that decodes for a consumer (the
// OnDeliver callback) reports the failure through the trace hook
// and hands on nil; the cluster keeps running. A value even gob cannot
// encode is refused at the cast, with a trace line and the zero ID.
func TestLiveClusterReportsUndecodablePayloads(t *testing.T) {
	t.Setenv("WANAMCAST_TCP_DEBUG", "1") // the live trace hook writes to stderr
	stderr, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stderr
	os.Stderr = stderr
	defer func() { os.Stderr = saved }()

	l := NewLiveCluster(LiveConfig{Groups: 1, PerGroup: 2, BasePort: 24800})
	var mu sync.Mutex
	got := map[MessageID][]any{}
	l.OnDeliver(func(_ ProcessID, id MessageID, payload any) {
		mu.Lock()
		got[id] = append(got[id], payload)
		mu.Unlock()
	})
	if err := l.Start(); err != nil {
		t.Fatal(err)
	}
	defer l.Stop()

	garbled := wire.AppendValue(nil, []int{1, 2, 3, 4, 5, 6, 7, 8}) // a gob blob
	for i := len(garbled) / 2; i < len(garbled); i++ {
		garbled[i] = 0xFF
	}
	if _, _, err := wire.DecodeValue(garbled); err == nil {
		t.Fatal("the garbled blob decodes")
	}
	var bad MessageID
	l.rt.Run(0, func() { bad = l.hosts[0].A1.AMCast(garbled, types.NewGroupSet(0)) })
	if id := l.Multicast(0, make(chan int), 0); !id.IsZero() {
		t.Fatalf("an unencodable payload was cast as %v", id)
	}
	good := l.Multicast(1, "after", 0)
	if !l.WaitDelivered(bad, 2, 10*time.Second) || !l.WaitDelivered(good, 2, 10*time.Second) {
		t.Fatal("the cluster stopped delivering")
	}
	mu.Lock()
	if want := []any{nil, nil}; !reflect.DeepEqual(got[bad], want) {
		t.Errorf("OnDeliver got %v for the garbled payload, want %v", got[bad], want)
	}
	if want := []any{"after", "after"}; !reflect.DeepEqual(got[good], want) {
		t.Errorf("OnDeliver got %v after it, want %v", got[good], want)
	}
	mu.Unlock()
	l.Stop()
	os.Stderr = saved
	log, err := os.ReadFile(stderr.Name())
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(log), fmt.Sprintf("%v's payload does not decode", bad)); n < 2 {
		t.Errorf("the trace hook reported the garbled payload %d times, want 2 (one per OnDeliver)", n)
	}
	if !strings.Contains(string(log), "cast refused") {
		t.Error("the trace hook did not report the refused cast")
	}
}
