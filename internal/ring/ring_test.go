package ring

import (
	"runtime"
	"sync"
	"testing"
)

// TestFIFOOrderAcrossGrowthAndSlides interleaves pushes and pops in uneven
// runs, so the queue grows, empties, and slides a partly consumed array to
// the front: every element comes out once, in push order, and a consumed
// slot holds no reference.
func TestFIFOOrderAcrossGrowthAndSlides(t *testing.T) {
	var q FIFO[*int]
	pushed, popped := 0, 0
	for round := 1; round <= 200; round++ {
		for i := 0; i < round%13+1; i++ {
			v := pushed
			q.Push(&v)
			pushed++
		}
		for i := 0; i < round%7+1 && q.Len() > 0; i++ {
			if v := *q.Pop(); v != popped {
				t.Fatalf("round %d: pop = %d, want %d", round, v, popped)
			}
			popped++
		}
		for i, p := range q.vals[:q.head] {
			if p != nil {
				t.Fatalf("round %d: consumed slot %d still holds %d", round, i, *p)
			}
		}
		if q.Len() != pushed-popped {
			t.Fatalf("round %d: Len = %d, want %d", round, q.Len(), pushed-popped)
		}
	}
	for q.Len() > 0 {
		if v := *q.Pop(); v != popped {
			t.Fatalf("drain: pop = %d, want %d", v, popped)
		}
		popped++
	}
	if popped != pushed {
		t.Fatalf("popped %d of %d", popped, pushed)
	}
}

// TestFIFOSteadyStateZeroAllocs: a queue that never empties — the shape of a
// lane whose barriers overlap — allocates nothing once it has grown to its
// depth.
func TestFIFOSteadyStateZeroAllocs(t *testing.T) {
	var q FIFO[int]
	for i := 0; i < 64; i++ {
		q.Push(i)
	}
	next, want := 64, 0
	if n := testing.AllocsPerRun(1000, func() {
		q.Push(next)
		next++
		if v := q.Pop(); v != want {
			t.Fatalf("pop = %d, want %d", v, want)
		}
		want++
	}); n != 0 {
		t.Fatalf("a push and a pop at constant depth made %.1f allocations, want 0", n)
	}
}

func TestMPSCSequential(t *testing.T) {
	q := NewMPSC[int](8)
	for lap := 0; lap < 100; lap++ { // exercise slot sequence recycling
		for i := 0; i < 8; i++ {
			if !q.TryPush(lap*8 + i) {
				t.Fatalf("push refused below capacity (lap %d, i %d)", lap, i)
			}
		}
		if q.TryPush(-1) {
			t.Fatal("push into full ring succeeded")
		}
		for i := 0; i < 8; i++ {
			v, ok := q.TryPop()
			if !ok || v != lap*8+i {
				t.Fatalf("pop = (%d, %v), want (%d, true)", v, ok, lap*8+i)
			}
		}
		if _, ok := q.TryPop(); ok {
			t.Fatal("pop from drained ring succeeded")
		}
	}
}

// TestMPSCConcurrent runs several producers against one consumer and
// checks per-producer FIFO and exact totals — the contract the lane
// inboxes rely on.
func TestMPSCConcurrent(t *testing.T) {
	const (
		producers = 4
		perProd   = 50000
	)
	type item struct{ prod, seq int }
	q := NewMPSC[item](64)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProd; {
				if q.TryPush(item{prod: p, seq: i}) {
					i++
				} else {
					runtime.Gosched()
				}
			}
		}()
	}
	next := make([]int, producers)
	got := 0
	for got < producers*perProd {
		v, ok := q.TryPop()
		if !ok {
			runtime.Gosched()
			continue
		}
		if v.seq != next[v.prod] {
			t.Fatalf("producer %d out of order: got seq %d, want %d", v.prod, v.seq, next[v.prod])
		}
		next[v.prod]++
		got++
	}
	wg.Wait()
	if _, ok := q.TryPop(); ok {
		t.Fatal("ring not empty after all items consumed")
	}
}

func BenchmarkMPSCPushPop(b *testing.B) {
	q := NewMPSC[int](4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.TryPush(i)
		q.TryPop()
	}
}

func BenchmarkChanPushPop(b *testing.B) {
	ch := make(chan int, 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ch <- i
		<-ch
	}
}
