package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"wanamcast/internal/types"
)

// TestTraceDisabledZeroAllocs pins the tracer's cost discipline: a nil
// tracer and a constructed-but-disabled tracer must record, span-allocate,
// and answer Enabled without a single heap allocation. The live runtime
// calls these on every frame, so a regression here is a throughput bug.
func TestTraceDisabledZeroAllocs(t *testing.T) {
	id := types.MessageID{Origin: 3, Seq: 7}

	var nilT *Tracer
	if a := testing.AllocsPerRun(1000, func() {
		nilT.Record(0, StageCast, id, 3, 42)
		nilT.RecordSpan(9, 0, StageLaneDeq, id, 3, 42)
		nilT.Record(0, StageRoundWait, id, 3, 42)
		_ = nilT.NextSpan()
		_ = nilT.Enabled()
	}); a != 0 {
		t.Fatalf("nil tracer allocated %.1f per op, want 0", a)
	}

	off := New(4, 64) // constructed but never enabled
	if a := testing.AllocsPerRun(1000, func() {
		off.Record(1, StageDeliver, id, 3, 42)
		off.RecordSpan(9, 1, StagePromise, id, 3, 42)
		off.Record(1, StageRoundWait, id, 3, 42)
		off.Record(1, StageBlocked, id, 3, 42)
		_ = off.Enabled()
	}); a != 0 {
		t.Fatalf("disabled tracer allocated %.1f per op, want 0", a)
	}
}

// TestTraceEnabledRecordNoAlloc pins the enabled hot path too: Event is a
// flat value pushed into a preallocated slot and a stage duration lands in a
// fixed-size histogram, so recording performs no allocation from the first
// event on.
func TestTraceEnabledRecordNoAlloc(t *testing.T) {
	tr := New(2, 64)
	tr.SetEnabled(true)
	id := types.MessageID{Origin: 1, Seq: 1}
	if a := testing.AllocsPerRun(1000, func() {
		tr.Record(0, StageLaneDeq, id, 1, 5)
	}); a != 0 {
		t.Fatalf("enabled Record allocated %.1f per op, want 0", a)
	}
}

func TestTracerSnapshotOrderAndOverwrite(t *testing.T) {
	tr := New(2, 8)
	tr.SetEnabled(true)
	var now int64
	tr.SetClock(func() int64 { now++; return now })

	// 20 events into an 8-slot lane: only the newest 8 survive.
	id := types.MessageID{Origin: 0, Seq: 1}
	for i := 0; i < 20; i++ {
		tr.Record(0, StageCast, id, 0, int64(i))
	}
	evs := tr.Snapshot()
	if len(evs) != 8 {
		t.Fatalf("snapshot holds %d events, want the newest 8", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatalf("snapshot out of time order at %d: %d after %d", i, evs[i].At, evs[i-1].At)
		}
	}
	if evs[len(evs)-1].Aux != 19 {
		t.Fatalf("newest event aux = %d, want 19", evs[len(evs)-1].Aux)
	}
}

// TestWriteJSONL checks the flight-recorder dump format: one JSON object
// per line, stages by name, message identity and aux preserved.
func TestWriteJSONL(t *testing.T) {
	tr := New(1, 16)
	tr.SetEnabled(true)
	id := types.MessageID{Origin: 2, Seq: 9}
	tr.Record(0, StageCast, id, 2, 5)
	tr.Record(0, StagePromise, id, 4, int64(3*time.Millisecond))

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var lines []map[string]any
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("unparseable JSONL line %q: %v", sc.Text(), err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 2 {
		t.Fatalf("dump has %d lines, want 2", len(lines))
	}
	if lines[0]["stage"] != "cast" || lines[1]["stage"] != "promise" {
		t.Fatalf("stages = %v, %v; want cast, promise", lines[0]["stage"], lines[1]["stage"])
	}
	if lines[0]["orig"].(float64) != 2 || lines[0]["seq"].(float64) != 9 {
		t.Fatalf("message identity lost in dump: %v", lines[0])
	}
	// The barrier stage fed the stage histograms.
	found := false
	for _, s := range tr.Stats().Snapshot() {
		if s.Name == "promise" && s.Count == 1 && s.P50 == 3*time.Millisecond {
			found = true
		}
	}
	if !found {
		t.Fatalf("promise duration missing from stage stats: %v", tr.Stats().Snapshot())
	}
}

// TestStageNamesCoverEnum guards the name table against enum growth.
func TestStageNamesCoverEnum(t *testing.T) {
	if len(StageNames()) != NumStages() {
		t.Fatalf("%d stage names for %d stages", len(StageNames()), NumStages())
	}
	for i, n := range StageNames() {
		if n == "" {
			t.Fatalf("stage %d has no name", i)
		}
		if Stage(i).String() != n {
			t.Fatalf("Stage(%d).String() = %q, want %q", i, Stage(i).String(), n)
		}
	}
}
