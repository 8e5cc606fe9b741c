package wanamcast

// Satellite of the service-layer PR: the §2.2 checkers, previously only
// exercised on simulator traces, run here against the delivery log of a
// REAL TCP cluster — both through the built-in LiveConfig.Check path and
// through an independently reconstructed checker fed from OnDeliver.

import (
	"testing"
	"time"

	"wanamcast/internal/check"
	"wanamcast/internal/workload"
)

func TestLiveCheckProperties(t *testing.T) {
	l := NewLiveCluster(LiveConfig{
		Groups:   3,
		PerGroup: 2,
		BasePort: 24700,
		WANDelay: 5 * time.Millisecond,
		MaxBatch: 16,
		Pipeline: 2,
		Check:    true,
	})
	deliveries := recordDeliveries(l)
	if err := l.Start(); err != nil {
		t.Fatal(err)
	}
	defer l.Stop()

	topo := l.Topology()
	casts := workload.Generate(topo, workload.Spec{Casts: 40, MeanPeriod: 2 * time.Millisecond, Seed: 3})
	type castRec struct {
		id   MessageID
		dest GroupSet
		want int
	}
	var recs []castRec
	for _, c := range casts {
		id := l.Multicast(c.From, c.Payload, c.Dest.Groups()...)
		recs = append(recs, castRec{id: id, dest: c.Dest, want: len(topo.ProcessesIn(c.Dest))})
	}
	for _, r := range recs {
		if !l.WaitDelivered(r.id, r.want, 30*time.Second) {
			t.Fatalf("%v delivered by %d of %d addressees", r.id, l.DeliveredCount(r.id), r.want)
		}
	}

	// The built-in checker over the live run.
	if v := l.CheckProperties(); len(v) != 0 {
		t.Fatalf("live run violates §2.2 (%d):\n%v", len(v), v)
	}

	// And independently: rebuild a checker from the deliveries OnDeliver
	// saw (their global order preserves each process's delivery order).
	ck := check.New(topo)
	for _, r := range recs {
		ck.RecordCast(r.id, r.dest)
	}
	for _, d := range deliveries() {
		ck.RecordDeliver(d.Process, d.ID)
	}
	if v := ck.Check(nil, func(MessageID) bool { return true }); len(v) != 0 {
		t.Fatalf("reconstructed checker found violations (%d):\n%v", len(v), v)
	}

	// Negative control: a forged delivery trips integrity immediately.
	ck.RecordDeliver(topo.AllProcesses()[0], MessageID{Origin: 99, Seq: 99})
	if v := ck.Check(nil, nil); len(v) == 0 {
		t.Fatal("checker missed a delivery that was never cast")
	}
}
