package baseline

import (
	"time"

	"wanamcast/internal/amcast"
	"wanamcast/internal/fd"
	"wanamcast/internal/node"
	"wanamcast/internal/rmcast"
)

// NewFritzke builds the Fritzke et al. [5] atomic multicast: the A1 engine
// with A1's stage skipping disabled, the contrast §4.1 draws. Every message
// traverses all four stages (two consensus instances, even single-group
// messages; amcast runs s2 in every group for multi-group ones anyway), and
// the initial cast uses the eager (uniform-style) reliable multicast, which
// relays every copy and therefore sends O(k²d²) messages where A1's direct
// primitive sends d(k−1).
//
// Latency degree: 2, like A1 — the extra consensus instances are
// intra-group and do not add inter-group delays. The cost shows up in the
// message and consensus-instance counts instead (see the stage-skipping
// ablation benchmark).
func NewFritzke(host node.Registrar, det fd.Detector, onDeliver func(rmcast.Message), retry time.Duration) *amcast.Mcast {
	return amcast.New(amcast.Config{
		Host:           host,
		Detector:       det,
		OnDeliver:      onDeliver,
		SkipStages:     false,
		RMMode:         rmcast.ModeEager,
		ConsensusRetry: retry,
		LabelPrefix:    "fritzke",
	})
}
