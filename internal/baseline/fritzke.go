package baseline

import (
	"time"

	"wanamcast/internal/amcast"
	"wanamcast/internal/fd"
	"wanamcast/internal/node"
	"wanamcast/internal/types"
)

// NewFritzke builds the Fritzke et al. [5] atomic multicast: the A1 engine
// without A1's stage skipping and with the eager reliable multicast
// (amcast.NewFritzke).
//
// Latency degree: 2, like A1 — the extra consensus instances are
// intra-group and do not add inter-group delays. The cost shows up in the
// message and consensus-instance counts instead (see the stage-skipping
// ablation benchmark).
func NewFritzke(host *node.Proc, det fd.Detector, onDeliver func(types.MessageID, []byte), retry time.Duration) *amcast.Mcast {
	return amcast.NewFritzke(amcast.Config{Host: host, Detector: det, OnDeliver: onDeliver, ConsensusRetry: retry})
}
