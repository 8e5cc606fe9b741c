package wanamcast

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"wanamcast/internal/svc"
	"wanamcast/internal/types"
)

// TestRestartDoesNotLeakOldIncarnation pins the Crash→Restart teardown
// contract: the dead incarnation's server is replaced as the process's
// replica, its state machine sees nothing after the crash, its
// timers and writer goroutines do not pile up across repeated restart
// cycles, the servers' reply writers exit with their connections, and
// every delivered command is applied exactly once by exactly
// the live incarnation.
func TestRestartDoesNotLeakOldIncarnation(t *testing.T) {
	cl, _ := restartCluster(t, 30600)
	topo := cl.Topology()
	route := svc.PrefixRoute(topo.NumGroups())
	machines := make(map[types.ProcessID][]*svc.KVMachine)
	service, err := svc.ServeCluster(cl, topo, svc.ServiceConfig{
		NewMachine: func(p types.ProcessID, g types.GroupID) svc.StateMachine {
			m := svc.NewKVMachine(g, route)
			machines[p] = append(machines[p], m)
			return m
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer service.Stop()

	victim := cl.Process(0, 2)
	put := func(key, val string) {
		client := svc.NewClient(svc.ClientConfig{
			Session: uint64(len(machines[victim])), // fresh session per cycle
			Addrs:   service.Addrs(),
			Timeout: 500 * time.Millisecond,
		})
		defer client.Close()
		kv := &svc.KV{Client: client, Route: route}
		if _, err := kv.Put(map[string]string{key: val}); err != nil {
			t.Fatalf("put %s: %v", key, err)
		}
	}
	put("g0/warm", "1")

	baseline := runtime.NumGoroutine()
	for cycle := 0; cycle < 3; cycle++ {
		cl.Crash(victim)
		// Commands ordered while the victim is down must reach it only
		// after restart, and only its NEW incarnation.
		if err := service.RestartReplica(victim); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		put("g0/cycle", string(rune('a'+cycle)))
		// The victim's replica is the new server.
		if r, srv := cl.replica(victim), service.Server(victim); r != srv {
			t.Fatalf("cycle %d: %v's replica is %p, want the new server %p", cycle, victim, r, srv)
		}
	}

	// Wait for the last put to land everywhere, then check apply counts:
	// the machine generations of the victim must partition the command
	// history — each command applied exactly once across ALL generations,
	// with the dead generations frozen.
	waitConverged(t, service, topo, 10*time.Second)
	gens := machines[victim]
	if len(gens) != 4 { // initial + 3 restarts
		t.Fatalf("expected 4 machine generations, got %d", len(gens))
	}
	var total uint64
	for _, m := range gens[:len(gens)-1] {
		total += m.Applied()
	}
	frozen := total
	live := gens[len(gens)-1].Applied()
	// The live generation replays the full history (snapshot + WAL + sync
	// carry the apply counter), so its counter alone must equal the other
	// replicas' — checked by waitConverged. The dead generations must not
	// advance after another full round trip.
	put("g0/final", "z")
	waitConverged(t, service, topo, 10*time.Second)
	var after uint64
	for _, m := range gens[:len(gens)-1] {
		after += m.Applied()
	}
	if after != frozen {
		t.Fatalf("dead incarnations kept applying: %d -> %d", frozen, after)
	}
	if gens[len(gens)-1].Applied() <= live-1 {
		t.Fatalf("live incarnation did not apply the new command")
	}

	// Every client above has closed its connections, and the old servers
	// were stopped: no connection's reply writer may outlive it.
	for deadline := time.Now().Add(5 * time.Second); replyWriters() > 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d reply writers outlive their connections", replyWriters())
		}
	}

	// Goroutines must not grow without bound across cycles (writer loops
	// are reused, old incarnations die). Allow generous slack for
	// listener/connection churn.
	runtime.GC()
	time.Sleep(200 * time.Millisecond)
	if now := runtime.NumGoroutine(); now > baseline+40 {
		t.Fatalf("goroutines grew from %d to %d across restart cycles", baseline, now)
	}
}

// replyWriters counts the goroutines running a service connection's reply
// writer.
func replyWriters() int {
	buf := make([]byte, 8<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "svc.(*Server).writeConn(")
}
