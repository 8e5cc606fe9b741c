package network

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"wanamcast/internal/types"
)

// Link is one directed (from, to) channel of the fabric. Every override —
// severing, delay — is directional: a symmetric fault is two links.
type Link struct {
	From, To types.ProcessID
}

// overrides is one immutable snapshot of every installed link override.
// Mutations never touch a published snapshot: they clone it, edit the
// clone, and atomically swap the pointer, so readers (the simulator's
// per-send Route call, the TCP read loops and writer goroutines) consult
// the table with a single atomic load and zero locks.
type overrides struct {
	severed map[Link]bool
	delays  map[Link]time.Duration
}

func (o *overrides) clone() *overrides {
	c := &overrides{
		severed: make(map[Link]bool, len(o.severed)),
		delays:  make(map[Link]time.Duration, len(o.delays)),
	}
	for l, v := range o.severed {
		c.severed[l] = v
	}
	for l, v := range o.delays {
		c.delays[l] = v
	}
	return c
}

// delay applies the snapshot's per-link delay override over the base model.
func (o *overrides) delay(m Model, topo *types.Topology, from, to types.ProcessID, rng *rand.Rand) time.Duration {
	if d, ok := o.delays[Link{from, to}]; ok {
		m.IntraGroup, m.InterGroup = d, d
	}
	return m.Delay(topo, from, to, rng)
}

// Fabric is a mutable, runtime-controllable link table layered over a base
// Model: the chaos surface of the repository. It does two things to a link:
// withhold its traffic (Sever/Heal and the partitions built on them) and
// change its delay (SetDelay/SetGroupDelay). The base model answers for
// every link the fabric holds no override for; overrides install at
// runtime, per (from, to) pair or per group-pair, symmetric or asymmetric.
// A delay override replaces the base delay and keeps the base jitter. It
// counts no traffic: the wire bytes a runtime sends are counted once, by
// the runtime's metrics.Collector.
//
// A severed link is still a quasi-reliable channel (§2.1): the runtimes do
// not LOSE messages sent across it, they withhold them — the simulator
// parks them until Heal, and the TCP transport parks outbound frames the
// way real TCP retransmission would carry them across a partition. A
// partition-then-heal is therefore an admissible run (arbitrary finite
// delay), so the §2.2 safety properties must hold throughout and liveness
// must resume after Heal.
//
// Fabric is safe for concurrent use: the simulator drives it from the
// scheduler goroutine, the live runtime consults it from read loops and
// writer goroutines while a scenario mutates it from a timer goroutine.
// Reads are lock-free on every path: the override table is a read-mostly
// snapshot behind an atomic pointer, copied on each (rare) mutation. An
// untouched fabric (no override ever installed) answers with a single
// atomic load of nil, so runs without chaos pay nothing per message.
type Fabric struct {
	topo  *types.Topology
	model Model

	snap atomic.Pointer[overrides] // nil until the first override installs

	mu   sync.Mutex // serializes mutations (clone-edit-swap of snap)
	subs []func(l Link, severed bool)
}

// NewFabric returns a fabric over topo whose every link initially behaves
// per base.
func NewFabric(topo *types.Topology, base Model) *Fabric {
	return &Fabric{topo: topo, model: base}
}

// Base returns the underlying static model.
func (f *Fabric) Base() Model { return f.model }

// OnTransition subscribes fn to sever/heal transitions: it runs once per
// link whose severed state actually changed, after the change is visible,
// outside the fabric's lock (so fn may query the fabric). Subscribe before
// the run starts; subscription is not synchronized against mutations.
func (f *Fabric) OnTransition(fn func(l Link, severed bool)) {
	f.subs = append(f.subs, fn)
}

// Severed reports whether the directed link from→to is currently severed.
func (f *Fabric) Severed(from, to types.ProcessID) bool {
	st := f.snap.Load()
	return st != nil && st.severed[Link{from, to}]
}

// Delay returns the current one-way delay for a message on from→to: the
// link's delay override if one is installed, else the base model's. rng
// feeds the base model's jitter draws; the Model.Delay contract applies (a
// jittered base model needs an rng, an unjittered one takes nil).
func (f *Fabric) Delay(from, to types.ProcessID, rng *rand.Rand) time.Duration {
	st := f.snap.Load()
	if st == nil {
		return f.model.Delay(f.topo, from, to, rng)
	}
	return st.delay(f.model, f.topo, from, to, rng)
}

// Route answers both per-transmit questions — is the link severed, and if
// not what is its delay — from ONE snapshot load, so the simulator's send
// hot path consults the fabric exactly once per message. A severed answer
// draws nothing from rng: parked messages take their delay when the link
// heals and they are released, which keeps the rng stream identical to a
// run that consulted Severed and Delay separately.
func (f *Fabric) Route(from, to types.ProcessID, rng *rand.Rand) (delay time.Duration, severed bool) {
	st := f.snap.Load()
	if st == nil {
		return f.model.Delay(f.topo, from, to, rng), false
	}
	if st.severed[Link{from, to}] {
		return 0, true
	}
	return st.delay(f.model, f.topo, from, to, rng), false
}

// Sever cuts the directed link from→to: the runtimes withhold everything
// sent across it until Heal. Severing a severed link is a no-op.
func (f *Fabric) Sever(from, to types.ProcessID) { f.apply([]Link{{from, to}}, true) }

// Heal restores the directed link from→to; withheld messages flow again.
func (f *Fabric) Heal(from, to types.ProcessID) { f.apply([]Link{{from, to}}, false) }

// SeverBidi cuts both directions between a and b.
func (f *Fabric) SeverBidi(a, b types.ProcessID) { f.apply([]Link{{a, b}, {b, a}}, true) }

// HealBidi restores both directions between a and b.
func (f *Fabric) HealBidi(a, b types.ProcessID) { f.apply([]Link{{a, b}, {b, a}}, false) }

// Isolate cuts every link between p and the rest of its group, both
// directions — the classic "node dropped off the LAN" fault. The failure
// detectors suspect p after their detection lag and restore trust after
// HealIsolate.
func (f *Fabric) Isolate(p types.ProcessID) { f.apply(f.isolationLinks(p), true) }

// HealIsolate undoes Isolate.
func (f *Fabric) HealIsolate(p types.ProcessID) { f.apply(f.isolationLinks(p), false) }

func (f *Fabric) isolationLinks(p types.ProcessID) []Link {
	var links []Link
	for _, q := range f.topo.Members(f.topo.GroupOf(p)) {
		if q != p {
			links = append(links, Link{p, q}, Link{q, p})
		}
	}
	return links
}

// Partition severs every link between the group sets a and b: both
// directions when symmetric, only a→b otherwise. Groups outside a∪b keep
// all their links; links within each side are untouched.
func (f *Fabric) Partition(a, b []types.GroupID, symmetric bool) {
	f.apply(f.crossLinks(a, b, symmetric), true)
}

// HealPartition restores the links Partition(a, b, symmetric) severed.
func (f *Fabric) HealPartition(a, b []types.GroupID, symmetric bool) {
	f.apply(f.crossLinks(a, b, symmetric), false)
}

// HealAll restores every severed link in one transition sweep. Transitions
// fire in (From, To) order — map iteration order must not leak into the
// subscribers, or the simulator's held-message release order (and its rng
// draw order) would vary across same-seed runs.
func (f *Fabric) HealAll() {
	f.mu.Lock()
	cur := f.snap.Load()
	if cur == nil || len(cur.severed) == 0 {
		f.mu.Unlock()
		return
	}
	next := cur.clone()
	healed := make([]Link, 0, len(next.severed))
	for l := range next.severed {
		healed = append(healed, l)
		delete(next.severed, l)
	}
	f.snap.Store(next)
	f.mu.Unlock()
	sort.Slice(healed, func(i, j int) bool {
		if healed[i].From != healed[j].From {
			return healed[i].From < healed[j].From
		}
		return healed[i].To < healed[j].To
	})
	f.notify(healed, false)
}

// SetDelay overrides the one-way delay of the directed link from→to.
func (f *Fabric) SetDelay(from, to types.ProcessID, d time.Duration) {
	f.setDelay([]Link{{from, to}}, d)
}

// ClearDelay removes the delay override of from→to.
func (f *Fabric) ClearDelay(from, to types.ProcessID) { f.clearDelay([]Link{{from, to}}) }

// SetGroupDelay overrides the delay of every link between the group sets a
// and b (both directions when symmetric) — a WAN delay spike.
func (f *Fabric) SetGroupDelay(a, b []types.GroupID, d time.Duration, symmetric bool) {
	f.setDelay(f.crossLinks(a, b, symmetric), d)
}

// ClearGroupDelay removes the overrides SetGroupDelay installed.
func (f *Fabric) ClearGroupDelay(a, b []types.GroupID, symmetric bool) {
	f.clearDelay(f.crossLinks(a, b, symmetric))
}

// BandwidthOn reports whether the fabric's links are bandwidth-capped. Hot
// paths gate all per-message byte sizing on it, so an uncapped run pays
// nothing for the bandwidth machinery.
func (f *Fabric) BandwidthOn() bool { return f.model.Bandwidth > 0 }

// Bandwidth returns the bytes/s cap of the directed link from→to (the base
// model's: every link has the same), or 0 when links are uncapped.
func (f *Fabric) Bandwidth(from, to types.ProcessID) int64 { return f.model.Bandwidth }

// crossLinks enumerates the directed links crossing from group set a to
// group set b (and back when symmetric), excluding self-links.
func (f *Fabric) crossLinks(a, b []types.GroupID, symmetric bool) []Link {
	var links []Link
	for _, ga := range a {
		for _, gb := range b {
			if ga == gb {
				continue
			}
			for _, p := range f.topo.Members(ga) {
				for _, q := range f.topo.Members(gb) {
					links = append(links, Link{p, q})
					if symmetric {
						links = append(links, Link{q, p})
					}
				}
			}
		}
	}
	return links
}

// mutate installs overrides through the clone-edit-swap protocol, creating
// the first snapshot on demand.
func (f *Fabric) mutate(edit func(st *overrides)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	cur := f.snap.Load()
	var next *overrides
	if cur == nil {
		next = (&overrides{}).clone() // empty maps, ready to edit
	} else {
		next = cur.clone()
	}
	edit(next)
	f.snap.Store(next)
}

// apply flips the severed state of links to target and notifies
// subscribers of the actual transitions.
func (f *Fabric) apply(links []Link, target bool) {
	f.mu.Lock()
	cur := f.snap.Load()
	if cur == nil {
		if !target {
			// Healing links on an untouched fabric changes nothing.
			f.mu.Unlock()
			return
		}
		cur = (&overrides{}).clone()
	}
	next := cur.clone()
	var changed []Link
	for _, l := range links {
		if next.severed[l] == target {
			continue
		}
		if target {
			next.severed[l] = true
		} else {
			delete(next.severed, l)
		}
		changed = append(changed, l)
	}
	f.snap.Store(next)
	f.mu.Unlock()
	f.notify(changed, target)
}

func (f *Fabric) notify(links []Link, severed bool) {
	for _, l := range links {
		for _, fn := range f.subs {
			fn(l, severed)
		}
	}
}

func (f *Fabric) setDelay(links []Link, d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("network: negative delay %v", d))
	}
	f.mutate(func(st *overrides) {
		for _, l := range links {
			st.delays[l] = d
		}
	})
}

func (f *Fabric) clearDelay(links []Link) {
	f.mu.Lock()
	defer f.mu.Unlock()
	cur := f.snap.Load()
	if cur == nil {
		return
	}
	next := cur.clone()
	for _, l := range links {
		delete(next.delays, l)
	}
	f.snap.Store(next)
}
