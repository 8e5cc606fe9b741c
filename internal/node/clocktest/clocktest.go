// Package clocktest holds physical clocks that lie (node.Runtime.Skew), for
// the tests of what reads node.API.Micros. A hint off such a clock is only a
// hint: under each of them every property must hold, and only latency may
// suffer.
package clocktest

import (
	"time"

	"wanamcast/internal/types"
)

// Clock maps the run's true clock (µs) and a process to what that process
// reads. A nil Of is the true clock.
type Clock struct {
	Name string
	Of   func(now uint64, p types.ProcessID) uint64
}

const hour = uint64(time.Hour / time.Microsecond)

// jumped is an hour for the odd processes from 50 ms into the run.
func jumped(now uint64, p types.ProcessID) uint64 {
	if p%2 == 1 && now > 50_000 {
		return hour
	}
	return 0
}

// Lying are clocks wrong in every way a clock can be.
var Lying = []Clock{
	{"zero", func(now uint64, p types.ProcessID) uint64 { return 0 }},
	{"frozen", func(now uint64, p types.ProcessID) uint64 { return 7_000_000 + uint64(p) }},
	{"jump+1h", func(now uint64, p types.ProcessID) uint64 { return now + jumped(now, p) }},
	{"jump-1h", func(now uint64, p types.ProcessID) uint64 { return now + hour - jumped(now, p) }},
	{"2x-fast", func(now uint64, p types.ProcessID) uint64 { return now * uint64(1+p%2) }},
	{"epochs", func(now uint64, p types.ProcessID) uint64 { return now + uint64(p)*1_000_000_000 }},
	{"max-uint", func(now uint64, p types.ProcessID) uint64 { // a garbage RTC, or one set before 1970
		if p%2 == 1 {
			return ^uint64(0)
		}
		return now
	}},
}
