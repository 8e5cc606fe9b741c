package metrics

import (
	"slices"
	"sync"
	"time"
)

// StageStats accumulates per-stage latency distributions for the message
// lifecycle tracer (internal/trace): each pipeline stage that has a
// measurable duration — svc enqueue, consensus fsync barriers, group-commit
// windows, lane queueing, ordering residency, end-to-end reply — observes
// its samples here, so end-to-end p50s can be attributed to the layer that
// spent them. Each stage is one Hist: fixed memory however long the service
// lives, and its quantiles cover every sample since the tracer was built.
//
// Unlike a bare Hist, StageStats is safe for concurrent use: stages report
// from lane goroutines, the group-commit syncer, and svc reply goroutines
// at once. It is only touched when tracing is enabled, so the lock is off
// the disabled hot path.
type StageStats struct {
	mu    sync.Mutex
	names []string
	hists []Hist
}

// NewStageStats returns stats over len(names) stages.
func NewStageStats(names []string) *StageStats {
	return &StageStats{names: slices.Clone(names), hists: make([]Hist, len(names))}
}

// Observe records one duration sample for stage (an index into the names
// given at construction). Out-of-range stages are dropped.
func (s *StageStats) Observe(stage int, d time.Duration) {
	if s == nil || stage < 0 || stage >= len(s.hists) {
		return
	}
	s.mu.Lock()
	s.hists[stage].Observe(d)
	s.mu.Unlock()
}

// StageSummary condenses one stage's latency distribution.
type StageSummary struct {
	Name  string
	Count uint64
	P50   time.Duration
	P99   time.Duration
	Max   time.Duration
}

// Snapshot summarises every stage that has at least one sample, in stage
// order. It holds the lock only to copy the histograms; the quantiles are
// derived after it is released, so a scrape does not stall the lanes.
func (s *StageStats) Snapshot() []StageSummary {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	hists := slices.Clone(s.hists)
	s.mu.Unlock()
	var out []StageSummary
	for i, h := range hists {
		if h.Count == 0 {
			continue
		}
		out = append(out, StageSummary{
			Name:  s.names[i],
			Count: h.Count,
			P50:   h.Quantile(0.5),
			P99:   h.Quantile(0.99),
			Max:   h.Max,
		})
	}
	return out
}
