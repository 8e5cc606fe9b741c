package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"wanamcast/internal/harness"
	"wanamcast/internal/metrics"
	"wanamcast/internal/ring"
	"wanamcast/internal/sim"
	"wanamcast/internal/storage"
	"wanamcast/internal/svc"
	"wanamcast/internal/transport/tcp"
	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

// Per-layer metrics have three sources, all outside the program: public
// counter snapshots after an untraced run, the stage reservoirs and span
// dump of a traced run, and the drivers below, which time one layer's
// public functions in isolation for a fraction of a second each.

// driverBudget is how long each driver measures.
const driverBudget = 150 * time.Millisecond

// timeOp calls fn in batches until budget has passed and returns the
// mean nanoseconds and heap allocations per call.
func timeOp(budget time.Duration, fn func()) (ns, allocs float64) {
	const batch = 256
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	calls := 0
	for time.Since(start) < budget {
		for i := 0; i < batch; i++ {
			fn()
		}
		calls += batch
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed.Nanoseconds()) / float64(calls), float64(after.Mallocs-before.Mallocs) / float64(calls)
}

// runDrivers times the layers' public functions in isolation.
func runDrivers(seed int64) (values, error) {
	vs := make(values)

	// svc: one put applied to a shard's state machine.
	machine := svc.NewKVMachine(0, svc.PrefixRoute(groups))
	put := svc.EncodePut(map[string]string{"g0/k1": "v1"})
	var applyErr error
	ns, _ := timeOp(driverBudget, func() {
		if _, err := machine.Apply(put); err != nil {
			applyErr = err
		}
	})
	if applyErr != nil {
		return nil, fmt.Errorf("driver svc.kv_apply: %w", applyErr)
	}
	vs.set("svc.kv_apply_ns", ns, "")

	// svc: offline verification of a quorum delivery certificate.
	ring3, cert, members := driverCertificate()
	var certErr error
	ns, _ = timeOp(driverBudget, func() {
		if err := ring3.VerifyCertificate(cert, members); err != nil {
			certErr = err
		}
	})
	if certErr != nil {
		return nil, fmt.Errorf("driver svc.cert_verify: %w", certErr)
	}
	vs.set("svc.cert_verify_us", ns/1e3, "")

	// consensus: A2 on one group of three in the simulator orders every
	// cast through one Batcher with no WAN hop, so wall time per ordered
	// message is the consensus engine's cost.
	const simCasts = 2000
	t0 := time.Now()
	sys := harness.Build(harness.AlgoA2, harness.Options{Groups: 1, PerGroup: 3, Seed: seed})
	for i := 0; i < simCasts; i++ {
		sys.CastAt(time.Duration(i+1)*time.Millisecond, types.ProcessID(i%3), i, sys.Topo.AllGroups())
	}
	sys.Run()
	if v := sys.Check(); len(v) > 0 {
		return nil, fmt.Errorf("driver consensus.sim: §2.2 violated: %v", v)
	}
	vs.set("consensus.sim_ns_per_ordered", float64(time.Since(t0).Nanoseconds())/simCasts, "")

	// storage: the WAL's append, its barrier without fsync, and with.
	if err := driveStorage(vs); err != nil {
		return nil, err
	}

	// ring: the lane inbox, one push and one pop.
	q := ring.NewMPSC[int](1024)
	ns, _ = timeOp(driverBudget, func() {
		q.TryPush(1)
		q.TryPop()
	})
	vs.set("ring.push_pop_ns", ns, "")

	// tcp: one request and one reply over a client connection.
	rtt, err := driveSvcConn()
	if err != nil {
		return nil, err
	}
	vs.set("tcp.svc_rtt_us", rtt, "")

	// wire: one consensus-sized frame, encoded and decoded.
	body := svc.Command{Session: 7, Seq: 42, Op: put}
	var buf []byte
	var wireErr error
	ns, encAllocs := timeOp(driverBudget, func() {
		if buf, wireErr = wire.AppendFrame(buf[:0], 3, "a1.cons", 99, body); wireErr != nil {
			return
		}
	})
	vs.set("wire.encode_ns", ns, "")
	var batch wire.Batch
	var inflate []byte
	ns, decAllocs := timeOp(driverBudget, func() {
		if _, _, _, err := wire.DecodeFrameOrBatch(buf[4:], &batch, &inflate); err != nil {
			wireErr = err
		}
	})
	if wireErr != nil {
		return nil, fmt.Errorf("driver wire: %w", wireErr)
	}
	vs.set("wire.decode_ns", ns, "")
	vs.set("wire.allocs_per_frame", encAllocs+decAllocs, "encode + decode")

	// sim: the scheduler alone, one event scheduled and one executed.
	sched := sim.New(seed)
	nop := func() {}
	for i := 0; i < 1024; i++ { // a standing queue, as in a real run
		sched.At(time.Duration(i)*time.Microsecond, nop)
	}
	ns, allocs := timeOp(driverBudget, func() {
		sched.After(time.Millisecond, nop)
		sched.Step()
	})
	vs.set("sim.scheduler_event_ns", ns, "")
	vs.set("sim.scheduler_allocs_per_event", allocs, "")
	return vs, nil
}

// driverCertificate builds a certificate two of a shard's three replicas
// signed, the way svc.Client.Certify assembles one from CertShares. The
// receipt layout mirrors svc's; TestDriverCertificateVerifies fails if
// the two drift apart.
func driverCertificate() (*svc.KeyRing, svc.Certificate, []types.ProcessID) {
	keys := svc.NewKeyRing([]byte("bench"))
	members := []types.ProcessID{0, 1, 2}
	cert := svc.Certificate{ID: types.MessageID{Origin: 1, Seq: 9}, Group: 0, Order: 17, Hash: make([]byte, 32),
		Shares: make(map[types.ProcessID][]byte)}
	receipt := cert.ID.AppendTo(nil)
	receipt = wire.AppendVarint(receipt, int64(cert.Group))
	receipt = wire.AppendUvarint(receipt, cert.Order)
	receipt = wire.AppendBytes(receipt, cert.Hash)
	for _, p := range members[:2] {
		cert.Shares[p] = keys.Sign(p, receipt)
	}
	return keys, cert, members
}

func driveStorage(vs values) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(outDir, "drv-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	rec := storage.Record{Kind: storage.KindAccept, Proto: "a1.cons", Ballot: 1, Value: "a consensus value of typical size"}

	disk, err := storage.OpenDisk(dir+"/nofsync", storage.DiskOptions{NoFsync: true})
	if err != nil {
		return fmt.Errorf("driver storage: %w", err)
	}
	log := storage.NewLog(disk)
	const perCommit = 64 // MaxBatch records between barriers
	var appendTime, commitTime time.Duration
	appends, commits := 0, 0
	for start := time.Now(); time.Since(start) < driverBudget; {
		t0 := time.Now()
		for i := 0; i < perCommit; i++ {
			rec.Inst++
			log.Append(rec)
		}
		t1 := time.Now()
		log.Commit()
		appendTime += t1.Sub(t0)
		commitTime += time.Since(t1)
		appends += perCommit
		commits++
	}
	if err := disk.Close(); err != nil {
		return fmt.Errorf("driver storage: %w", err)
	}
	vs.set("storage.append_ns", float64(appendTime.Nanoseconds())/float64(appends), "")
	vs.set("storage.commit_nofsync_ns", float64(commitTime.Nanoseconds())/float64(commits), fmt.Sprintf("%d records per barrier", perCommit))

	disk, err = storage.OpenDisk(dir+"/fsync", storage.DiskOptions{})
	if err != nil {
		return fmt.Errorf("driver storage: %w", err)
	}
	log = storage.NewLog(disk)
	var syncs []float64
	for start := time.Now(); time.Since(start) < driverBudget || len(syncs) < 5; {
		rec.Inst++
		log.Append(rec)
		t0 := time.Now()
		log.Commit()
		syncs = append(syncs, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	if err := disk.Close(); err != nil {
		return fmt.Errorf("driver storage: %w", err)
	}
	vs.set("storage.fsync_us", median(syncs), fmt.Sprintf("median of %d", len(syncs)))
	return nil
}

// driveSvcConn echoes requests over one loopback client connection and
// returns the mean round trip in microseconds.
func driveSvcConn() (float64, error) {
	ln, err := tcp.SvcListen("127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("driver tcp: %w", err)
	}
	defer ln.Close()
	served := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			served <- err
			return
		}
		defer conn.Close()
		for {
			v, err := conn.ReadMsg()
			if err != nil {
				served <- nil // the client hung up: done
				return
			}
			req := v.(svc.Request)
			if err := conn.WriteMsg(0, svc.Reply{Session: req.Session, Seq: req.Seq, OK: true}); err != nil {
				served <- err
				return
			}
		}
	}()
	conn, err := tcp.SvcDial(ln.Addr().String(), time.Second)
	if err != nil {
		return 0, fmt.Errorf("driver tcp: %w", err)
	}
	req := svc.Request{Session: 1, Dest: types.NewGroupSet(0), Op: []byte("ping")}
	var rtErr error
	ns, _ := timeOp(driverBudget, func() {
		req.Seq++
		if err := conn.WriteMsg(types.NoProcess, req); err != nil {
			rtErr = err
			return
		}
		if _, err := conn.ReadMsg(); err != nil {
			rtErr = err
		}
	})
	_ = conn.Close()
	if err := <-served; err != nil && rtErr == nil {
		rtErr = err
	}
	if rtErr != nil {
		return 0, fmt.Errorf("driver tcp: %w", rtErr)
	}
	return ns / 1e3, nil
}

// protoCount sums the per-protocol message counters whose label passes
// match, as a delta over the window.
func protoCount(before, after metrics.Stats, match func(label string) bool) (total, inter float64) {
	for label, c := range after.PerProtocol {
		if match(label) {
			b := before.PerProtocol[label]
			total += float64(c.Total - b.Total)
			inter += float64(c.InterGroup - b.InterGroup)
		}
	}
	return total, inter
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

const mb = 1 << 20

// perLayerValues reduces an untraced run c, the traced run t of the same
// workload (nil on sim-scale), the drivers and c's named metrics to the
// per-layer metrics. A metric a workload has nothing to say about is 0.
func perLayerValues(c, t *run, drivers, named values) values {
	vs := make(values)
	for _, def := range perLayer {
		vs.set(def.name, 0, "")
	}
	for name, v := range drivers {
		vs[name] = v
	}
	for name, v := range named {
		vs[name] = v
	}

	ops := float64(max(c.completed(), 1))
	if c.sim != nil {
		ops = float64(c.sim.casts)
	}

	vs.set("proc.cpu_us_per_op", us(c.proc.cpu)/ops, "cluster, service and generator share the process")
	vs.set("proc.allocs_per_op", float64(c.proc.mallocs)/ops, "")
	vs.set("proc.bytes_per_op", float64(c.proc.bytes)/ops, "")
	vs.set("proc.gc_pause_ms", ms(c.proc.gcPause), "total over the window")
	vs.set("proc.rss_peak_mb", float64(c.proc.rssPeak)/mb, "")

	if s := c.sim; s != nil {
		vs.set("sim.events_per_cast", ratio(float64(s.events), float64(s.casts)), "")
		vs.set("sim.peak_heap_mb", float64(s.peakHeap)/mb, "")
		vs.set("amcast.degree_max", float64(s.degreeA1), "one multicast made alone")
		vs.set("abcast.degree_warm_share", s.warmShare, "probe: a broadcast every 50 ms")
		return vs
	}

	if c.w.rate > 0 {
		v, pct := c.lateTail()
		vs.set("gen.late_p99_ms", v, fmt.Sprintf("p%.4g", pct))
	}
	vs.set("gen.offered_per_s", float64(c.main.sent)/c.window.Seconds(), "")
	vs.set("gen.inflight_max", float64(c.main.inflight), "on one connection")

	b, a := c.before, c.after
	isA1 := func(l string) bool { return strings.HasPrefix(l, "a1") }
	isA2 := func(l string) bool { return strings.HasPrefix(l, "a2") }
	rm, _ := protoCount(b, a, func(l string) bool { return strings.HasSuffix(l, ".rm") })
	vs.set("rmcast.msgs_per_op", rm/ops, "")
	if c.w.name == "bcast-wan" {
		n, _ := protoCount(b, a, isA2)
		vs.set("abcast.msgs_per_op", n/ops, "")
		vs.set("abcast.rounds_per_op", float64(a.BatchesDecided-b.BatchesDecided)/float64(groups*perGroup)/ops, "rounds decided per process")
		warm, all := 0, 0
		for deg, count := range a.DegreeHist {
			all += count
			if deg == 1 {
				warm += count
			}
		}
		vs.set("abcast.degree_warm_share", ratio(float64(warm), float64(all)), fmt.Sprintf("%d casts", all))
	} else {
		n, wan := protoCount(b, a, isA1)
		vs.set("amcast.msgs_per_op", n/ops, "")
		vs.set("amcast.wan_msgs_per_op", wan/ops, "")
		vs.set("amcast.order_p50_ms", ms(a.P50Wall), "cast to last delivery")
		vs.set("amcast.degree_max", float64(a.MaxDegree), "")
		if c.w.warmLocal {
			alone := newDist((&run{main: c.warm}).latencies(isLocal, false, time.Hour))
			vs.set("amcast.local_alone_p50_ms", alone.p50(), fmt.Sprintf("n=%d warm-up ops", len(alone)))
		}
	}
	batches := float64(a.BatchesDecided - b.BatchesDecided)
	vs.set("consensus.instances_per_op", float64(a.ConsensusInstances-b.ConsensusInstances)/perGroup/ops, "learns per replica")
	vs.set("consensus.batch_mean", ratio(float64(a.BatchedMessages-b.BatchedMessages), batches), "")
	vs.set("consensus.ordered_per_learn", a.OrderedPerLearn, "")

	vs.set("svc.retries", float64(c.svc.Retries), "")
	vs.set("svc.duplicates", float64(c.svc.Duplicates), "")
	vs.set("svc.lease_denied", float64(c.svc.LeaseDenied), "")
	vs.set("svc.stale_reads", float64(c.svc.StaleReads), "")

	fsyncs := float64(c.fsync.Fsyncs - c.fsyncBefore.Fsyncs)
	vs.set("storage.fsyncs_per_op", fsyncs/ops, "")
	vs.set("storage.fsyncs_per_batch", ratio(fsyncs, batches), "")
	vs.set("storage.gc_barriers_per_window", ratio(float64(c.fsync.Barriers-c.fsyncBefore.Barriers), float64(c.fsync.Windows-c.fsyncBefore.Windows)), "")

	w := a.Wire
	vs.set("tcp.lane_depth_max", float64(c.laneMax), "sampled every 5 ms")
	vs.set("tcp.envelopes_per_op", float64(w.EnvelopesOut-b.Wire.EnvelopesOut)/ops, "")
	vs.set("wire.bytes_per_op", float64(w.BytesOut-b.Wire.BytesOut)/ops, "")
	vs.set("wire.frames_per_envelope", ratio(float64(w.FramesOut-b.Wire.FramesOut), float64(w.EnvelopesOut-b.Wire.EnvelopesOut)), "")
	vs.set("wire.compression_ratio", ratio(float64(w.RawPayloadOut-b.Wire.RawPayloadOut), float64(w.CompressedPayloadOut-b.Wire.CompressedPayloadOut)), "")

	vs.set("fd.suspicions", float64(a.Suspicions), "")
	vs.set("fd.leader_changes", float64(a.LeaderChanges), "")
	if len(c.episodes) > 0 {
		var detect, call, transfer []float64
		for _, ep := range c.episodes {
			if !ep.detect.IsZero() {
				detect = append(detect, ms(ep.detect.Sub(ep.crash)))
			}
			call = append(call, ms(ep.restarted.Sub(ep.restart)))
			transfer = append(transfer, ms(ep.caughtUp.Sub(ep.restarted)))
		}
		vs.set("fd.detect_ms", median(detect), fmt.Sprintf("median of %d episodes", len(detect)))
		vs.set("durable.restart_call_ms", median(call), "")
		vs.set("durable.transfer_ms", median(transfer), "")
	}

	if t != nil {
		stage := func(name, stage string) {
			s := t.stages[stage]
			vs.set(name, us(s.P50), fmt.Sprintf("n=%d", s.Count))
		}
		stage("svc.submit_us_p50", "enqueue")
		stage("svc.reply_us_p50", "reply")
		stage("storage.fsync_us_p50", "fsync")
		stage("tcp.lane_deq_us_p50", "lanedeq")
		vs.set("rmcast.admit_us_p50", t.spans.admit.p50()*1e3, fmt.Sprintf("n=%d span pairs", len(t.spans.admit)))
		vs.set("consensus.propose_learn_us_p50", t.spans.proposeLearn.p50()*1e3, fmt.Sprintf("n=%d span pairs", len(t.spans.proposeLearn)))
		vs.set("trace.overhead_ratio", ratio(float64(t.completed())/t.window.Seconds(), ops/c.window.Seconds()), "traced / untraced ops per second")
	}
	return vs
}
