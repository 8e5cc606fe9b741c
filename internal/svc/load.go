package svc

import (
	"cmp"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"wanamcast/internal/metrics"
	"wanamcast/internal/types"
	"wanamcast/internal/workload"
)

// LoadSpec describes a closed-loop multi-client KV workload: Clients
// concurrent sessions, each issuing Ops puts back to back (the next op
// starts when the previous reply lands), destination fan-out drawn from
// Mix.
type LoadSpec struct {
	Clients int
	Ops     int
	// Mix is the destination-shard distribution (nil = the §1
	// partial-replication default: 60% one shard, 30% two, 10% all).
	Mix []workload.MixEntry
	// Timeout is each client's first-attempt reply deadline (default 1s).
	Timeout time.Duration
	// SessionBase offsets the session IDs (client i uses SessionBase+i+1;
	// default 0). Set it to run a second load against a cluster whose
	// replicas still hold the first load's dedup windows.
	SessionBase uint64
	Seed        int64
	// ReadFraction in [0, 1] is the share of ops that are reads of the
	// client's home shard (default 0: the historical all-write load).
	ReadFraction float64
	// Consistency selects how reads are served (ordered, lease, or
	// watermark); ignored when ReadFraction is 0.
	Consistency Consistency
}

// keysPerShard sizes each client's key space on each shard.
const keysPerShard = 16

// LoadResult aggregates one load run.
type LoadResult struct {
	Ops     int // replies received (success)
	Errors  int // ops that exhausted retries or failed
	Reads   int // successful ops that were reads
	Writes  int // successful ops that were writes
	Elapsed time.Duration
	Stats   metrics.ServiceStats
}

// RunKVLoad drives spec against the service at addrs and blocks until
// every client finishes. Client i uses session i+1; sessions survive in
// the replicas' dedup tables, so reusing a seed against a live cluster
// requires fresh session numbers — RunKVLoad is meant for one run per
// cluster. The returned stats fold together the client-observed latencies
// and whatever server counters the caller wired into stats (pass the same
// *metrics.Service to ServeCluster to see both sides in one snapshot).
func RunKVLoad(topo *types.Topology, addrs map[types.GroupID][]string, spec LoadSpec, stats *metrics.Service) LoadResult {
	if spec.Clients <= 0 || spec.Ops <= 0 {
		panic(fmt.Sprintf("svc: invalid load spec %+v", spec))
	}
	spec.Timeout = cmp.Or(max(spec.Timeout, 0), time.Second)
	if stats == nil {
		stats = &metrics.Service{}
	}
	plans := workload.ClientPlans(topo, workload.ClientSpec{
		Clients: spec.Clients, Ops: spec.Ops, Mix: spec.Mix, Seed: spec.Seed,
		ReadFraction: spec.ReadFraction,
	})
	route := PrefixRoute(topo.NumGroups())

	var wg sync.WaitGroup
	var failed, reads, writes atomic.Int64
	begin := time.Now()
	for i := 0; i < spec.Clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(spec.Seed + int64(i)*7919))
			client := NewClient(ClientConfig{
				Session: spec.SessionBase + uint64(i+1),
				Addrs:   addrs,
				Timeout: spec.Timeout,
				Stats:   stats,
			})
			defer client.Close()
			kv := &KV{Client: client, Route: route}
			for op, plan := range plans[i] {
				var err error
				if plan.Read {
					key := fmt.Sprintf("g%d/c%d-k%d", plan.Dest.Groups()[0], i, rng.Intn(keysPerShard))
					_, _, err = kv.GetAt(key, spec.Consistency)
				} else {
					sets := make(map[string]string, plan.Dest.Size())
					for _, g := range plan.Dest.Groups() {
						key := fmt.Sprintf("g%d/c%d-k%d", g, i, rng.Intn(keysPerShard))
						sets[key] = fmt.Sprintf("c%d-op%d", i, op)
					}
					t0 := time.Now()
					_, err = kv.Put(sets)
					stats.RecordClassOutcome("write", time.Since(t0), err == nil)
				}
				switch {
				case err != nil:
					failed.Add(1)
				case plan.Read:
					reads.Add(1)
				default:
					writes.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return LoadResult{Ops: int(reads.Load() + writes.Load()), Errors: int(failed.Load()), Reads: int(reads.Load()),
		Writes: int(writes.Load()), Elapsed: time.Since(begin), Stats: stats.Snapshot()}
}
