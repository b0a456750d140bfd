package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"mocha"
	"mocha/internal/marshal"
	"mocha/internal/mnet"
	"mocha/internal/netsim"
	"mocha/internal/obs"
	"mocha/internal/store"
	"mocha/internal/transport"
	"mocha/internal/wire"
)

// layerCounters are the obs counters the traced run reads.
var layerCounters = []obs.Counter{
	obs.CAcquireRequests, obs.CGrants, obs.CDaemonPolls, obs.CApplies,
	obs.CPushes, obs.CPushAcks, obs.CTransfersFull, obs.CTransfersDelta,
	obs.CDeltaFallbacks, obs.CTransferBytes, obs.CSendBatches, obs.CSendBatchPkts,
}

// layerHists are the obs phase histograms whose means the traced run
// reports.
var layerHists = []obs.HistID{
	obs.HQueueWait, obs.HRequestRTT, obs.HTransferWait, obs.HApply,
	obs.HReleaseTotal, obs.HDisseminate, obs.HGrantDeliver,
}

// layerSnap is every layer counter the program exports, read at one
// instant: the obs registry, and each site's mnet endpoint and store.
type layerSnap struct {
	counters map[obs.Counter]int64
	hists    map[obs.HistID]obs.HistSnapshot
	ep       mnet.Stats
	st       store.Stats
}

func snapLayers(cl *mocha.Cluster) layerSnap {
	reg := cl.Metrics()
	s := layerSnap{counters: map[obs.Counter]int64{}, hists: map[obs.HistID]obs.HistSnapshot{}}
	for _, c := range layerCounters {
		s.counters[c] = reg.CounterValue(c)
	}
	for _, h := range layerHists {
		s.hists[h] = reg.Hist(h)
	}
	for _, site := range cl.Sites() {
		e := site.Node().Endpoint().Stats()
		s.ep.MessagesSent += e.MessagesSent
		s.ep.FragmentsSent += e.FragmentsSent
		s.ep.Retransmits += e.Retransmits
		s.ep.Duplicates += e.Duplicates
		s.ep.SendFailures += e.SendFailures
		s.ep.QueueDrops += e.QueueDrops
		s.ep.FlushDrops += e.FlushDrops
		st := site.Node().Store().Stats()
		s.st.Appends += st.Appends
		s.st.Fsyncs += st.Fsyncs
		s.st.Compactions += st.Compactions
	}
	return s
}

func (m measured) counter(c obs.Counter) float64 {
	return float64(m.to.counters[c] - m.from.counters[c])
}

// meanUS is a histogram's mean over the window in microseconds.
func (m measured) meanUS(h obs.HistID) float64 {
	a, b := m.from.hists[h], m.to.hists[h]
	n := b.Count - a.Count
	if n <= 0 {
		return 0
	}
	return float64(b.Sum-a.Sum) / float64(n) / 1e3
}

// depthSampler averages the sync thread's queue-depth gauge over a window.
type depthSampler struct {
	done   chan struct{}
	result chan float64
}

func startDepthSampler(reg *mocha.Metrics) *depthSampler {
	s := &depthSampler{done: make(chan struct{}), result: make(chan float64, 1)}
	go func() {
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		var sum, n float64
		for {
			select {
			case <-s.done:
				if n == 0 {
					n = 1
				}
				s.result <- sum / n
				return
			case <-t.C:
				sum += float64(reg.GaugeValue(obs.GSyncQueueDepth))
				n++
			}
		}
	}()
	return s
}

func (s *depthSampler) stop() float64 {
	close(s.done)
	return <-s.result
}

// isolation fails a traced window in which the workload stopped
// exercising the layer it exists for, or started exercising one it
// exists to bypass.
func isolation(w workload, m measured) error {
	transfers := m.counter(obs.CTransfersFull) + m.counter(obs.CTransfersDelta)
	appends := m.to.st.Appends - m.from.st.Appends
	switch w.name {
	case "owned-uniform":
		if transfers > 0 || appends > 0 {
			return fmt.Errorf("owned-uniform moved %v replica transfers and %d store appends; it must move none", transfers, appends)
		}
	case "shared-zipf-rw":
		if m.counter(obs.CTransfersDelta) == 0 {
			return fmt.Errorf("shared-zipf-rw shipped no delta transfer")
		}
	case "durable-ur":
		if m.counter(obs.CPushes) == 0 || appends == 0 {
			return fmt.Errorf("durable-ur made %v pushes and %d WAL appends; it needs both", m.counter(obs.CPushes), appends)
		}
	}
	return nil
}

// traced is the per-layer run: an untraced window (the tracing overhead's
// baseline and the tails), a traced window on a fresh cluster with the
// obs plane attached, and timings of each layer on workload-shaped input.
// The two windows share the run's measuring time.
func (b bench) traced(ctx context.Context) (result, error) {
	b.window /= 2
	ru, err := newRig(ctx, b.w, b.seed, nil, b.work)
	if err != nil {
		return result{}, fmt.Errorf("untraced setup: %w", err)
	}
	u := b.measure(ctx, ru, false)
	res := result{Correct: true, Attempted: u.attempted, Failed: u.failed}
	check(ctx, ru, &res)
	ru.close()

	rt, err := newRig(ctx, b.w, b.seed, mocha.NewMetrics(), b.work)
	if err != nil {
		return result{}, fmt.Errorf("traced setup: %w", err)
	}
	t := b.measure(ctx, rt, true)
	res.Attempted += t.attempted
	res.Failed += t.failed
	check(ctx, rt, &res)
	rt.close()
	if u.cycles == 0 || t.cycles == 0 {
		return result{}, fmt.Errorf("no cycle completed in a window")
	}
	if err := isolation(b.w, t); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: layer isolation: %v\n", err)
		res.Correct = false
	}
	if err := b.writeSpans(t.spans); err != nil {
		return result{}, err
	}

	perOp := func(c obs.Counter) float64 { return t.perOp(t.counter(c)) }
	flushPkts := 0.0
	if n := t.counter(obs.CSendBatches); n > 0 {
		flushPkts = t.counter(obs.CSendBatchPkts) / n
	}
	ep := func(f func(mnet.Stats) int64) float64 { return float64(f(t.to.ep) - f(t.from.ep)) }
	mt := map[string]metric{
		"core.queue_wait_us":              {t.meanUS(obs.HQueueWait), "us"},
		"core.transfer_wait_us":           {t.meanUS(obs.HTransferWait), "us"},
		"core.request_rtt_us":             {t.meanUS(obs.HRequestRTT), "us"},
		"core.release_us":                 {t.meanUS(obs.HReleaseTotal), "us"},
		"core.disseminate_us":             {t.meanUS(obs.HDisseminate), "us"},
		"core.acquire_requests_per_op":    {perOp(obs.CAcquireRequests), "1"},
		"sync.grant_deliver_us":           {t.meanUS(obs.HGrantDeliver), "us"},
		"sync.grants_per_op":              {perOp(obs.CGrants), "1"},
		"sync.queue_depth":                {t.qdepth, "1"},
		"sync.daemon_polls_per_op":        {perOp(obs.CDaemonPolls), "1"},
		"daemon.apply_us":                 {t.meanUS(obs.HApply), "us"},
		"daemon.applies_per_op":           {perOp(obs.CApplies), "1"},
		"transfer.full_per_op":            {perOp(obs.CTransfersFull), "1"},
		"transfer.delta_per_op":           {perOp(obs.CTransfersDelta), "1"},
		"transfer.delta_fallbacks_per_op": {perOp(obs.CDeltaFallbacks), "1"},
		"transfer.bytes_per_op":           {perOp(obs.CTransferBytes), "B"},
		"transfer.pushes_per_op":          {perOp(obs.CPushes), "1"},
		"transfer.push_acks_per_op":       {perOp(obs.CPushAcks), "1"},
		"mnet.msgs_per_op":                {t.perOp(ep(func(s mnet.Stats) int64 { return s.MessagesSent })), "1"},
		"mnet.fragments_per_op":           {t.perOp(ep(func(s mnet.Stats) int64 { return s.FragmentsSent })), "1"},
		"mnet.pkts_per_flush":             {flushPkts, "1"},
		"mnet.retransmits_per_op":         {t.perOp(ep(func(s mnet.Stats) int64 { return s.Retransmits })), "1"},
		"mnet.duplicates_per_op":          {t.perOp(ep(func(s mnet.Stats) int64 { return s.Duplicates })), "1"},
		"mnet.send_failures":              {ep(func(s mnet.Stats) int64 { return s.SendFailures }), "count"},
		"mnet.queue_drops":                {ep(func(s mnet.Stats) int64 { return s.QueueDrops }), "count"},
		"mnet.flush_drops":                {ep(func(s mnet.Stats) int64 { return s.FlushDrops }), "count"},
		"store.appends_per_op":            {t.perOp(float64(t.to.st.Appends - t.from.st.Appends)), "1"},
		"store.fsyncs_per_s":              {float64(t.to.st.Fsyncs-t.from.st.Fsyncs) / t.seconds, "1/s"},
		"store.compactions":               {float64(t.to.st.Compactions - t.from.st.Compactions), "count"},
		"obs.overhead_ops":                {1 - t.opsPerS/u.opsPerS, "1"},
		"obs.allocs_per_op":               {t.perOp(float64(t.mallocs)) - u.perOp(float64(u.mallocs)), "1"},
		"bench.op_self_us":                {t.selfMeanUS, "us"},
		"acquire_p99_ms":                  {u.acqP99, "ms"},
		"acquire_p999_ms":                 {u.acqP999, "ms"},
		"release_p99_ms":                  {u.relP99, "ms"},
		"acquire_samples":                 {float64(u.acqN), "count"},
		"release_samples":                 {float64(u.relN), "count"},
	}
	msgs := wireMix(b.w)
	for k, v := range wireTimings(msgs) {
		mt[k] = v
	}
	for k, v := range marshalTimings(b.w) {
		mt[k] = v
	}
	st, err := storeTimings(b.work)
	if err != nil {
		return result{}, fmt.Errorf("store timings: %w", err)
	}
	for k, v := range st {
		mt[k] = v
	}
	us, err := sendDeliverMicros(ctx, msgs)
	if err != nil {
		return result{}, fmt.Errorf("mnet timings: %w", err)
	}
	mt["mnet.send_deliver_us"] = metric{us, "us"}
	res.Metrics = mt
	return res, nil
}

// spanDumpOps caps how many cycles' spans a traced run writes out.
const spanDumpOps = 5000

type spanLine struct {
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Site   int32  `json:"site"`
	Lock   int32  `json:"lock"`
	Write  bool   `json:"write"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// writeSpans writes the op span and its acquire and release children of
// each recorded cycle, one JSON object per line.
func (b bench) writeSpans(ops []opRec) error {
	path := filepath.Join(b.out, fmt.Sprintf("spans-%s-seed%d.jsonl", b.w.name, b.seed))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for trace, r := range ops {
		for _, s := range []spanLine{
			{trace, "op", "", r.site, r.lock + 1, r.write, r.start, r.end},
			{trace, "acquire", "op", r.site, r.lock + 1, r.write, r.start, r.locked},
			{trace, "release", "op", r.site, r.lock + 1, r.write, r.release, r.end},
		} {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return fmt.Errorf("span dump: %w", err)
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("span dump: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	fmt.Printf("spans: %d cycles written to %s\n", len(ops), path)
	return nil
}

// timeLoop runs f repeatedly for about budget and returns ns per call.
func timeLoop(budget time.Duration, f func()) float64 {
	n := 0
	start := time.Now()
	for {
		for i := 0; i < 64; i++ {
			f()
		}
		n += 64
		if el := time.Since(start); el >= budget {
			return float64(el) / float64(n)
		}
	}
}

const microBudget = 150 * time.Millisecond

// replicaBlobs returns a replica's marshaled bytes before and after one
// workload-shaped write: the counter bumped and one byte overwritten.
func replicaBlobs(size int) (old, new []byte) {
	codec := marshal.NewFast(mocha.NativeCost())
	body := make([]byte, size)
	for i := range body {
		body[i] = byte(i * 7)
	}
	old, _ = codec.Marshal(marshal.Bytes(body))
	next := append([]byte(nil), body...)
	binary.LittleEndian.PutUint64(next, binary.LittleEndian.Uint64(next)+1)
	if size > 8 {
		next[8+size/3] ^= 0x5a
	}
	new, _ = codec.Marshal(marshal.Bytes(next))
	return old, new
}

// deltaOps turns the ranges that differ between two blobs into wire
// patch ops.
func deltaOps(old, new []byte) []wire.PatchOp {
	var ops []wire.PatchOp
	for _, r := range marshal.DiffRanges(old, new) {
		ops = append(ops, wire.PatchOp{Off: uint32(r.Off), Data: new[r.Off:r.End()]})
	}
	return ops
}

// wireMix is one cycle's protocol messages, shaped like the workload's:
// acquire, grant, release, and the replica delta a transfer or push of one
// write carries (the full replica when the workload ships full copies).
func wireMix(w workload) []wire.Payload {
	old, new := replicaBlobs(w.size)
	thread := wire.MakeThreadID(2, 1)
	sharers := wire.NewSiteSet(2)
	flag := wire.VersionOK
	if w.both {
		sharers = wire.NewSiteSet(2, 3)
	}
	if w.zipf {
		flag = wire.NeedNewVersion
	}
	dp := wire.DeltaPayload{Name: "r0", NewLen: uint32(len(new)), Checksum: marshal.Checksum(new), Ops: deltaOps(old, new)}
	if w.both && !w.delta {
		dp = wire.DeltaPayload{Name: "r0", Full: true, Data: new}
	}
	return []wire.Payload{
		&wire.AcquireLock{Lock: 1, Requester: 2, Thread: thread, Shared: w.writeFrac < 1, LeaseMillis: 30000, HaveVersion: 41},
		&wire.Grant{Lock: 1, Thread: thread, Version: 41, Flag: flag, Sharers: sharers, UpToDate: wire.NewSiteSet(2), VersionFloor: 41, Fence: 1<<32 | 7},
		&wire.ReleaseLock{Lock: 1, Releaser: 2, Thread: thread, NewVersion: 42, UpToDate: sharers, Fence: 1<<32 | 7},
		&wire.ReplicaDelta{Lock: 1, From: 2, Version: 42, FromVersion: 41, Push: w.ur > 1, Replicas: []wire.DeltaPayload{dp}},
	}
}

// wireTimings times wire.Marshal and wire.Unmarshal over the message mix
// and counts the allocations of one encode plus one decode per message.
func wireTimings(msgs []wire.Payload) map[string]metric {
	blobs := make([][]byte, len(msgs))
	for i, m := range msgs {
		blobs[i] = wire.Marshal(m)
	}
	k := 0
	enc := timeLoop(microBudget, func() {
		blobs[k%len(msgs)] = wire.Marshal(msgs[k%len(msgs)])
		k++
	})
	k = 0
	dec := timeLoop(microBudget, func() {
		if _, err := wire.Unmarshal(blobs[k%len(blobs)]); err != nil {
			panic(err) // the blobs were just encoded by wire.Marshal
		}
		k++
	})
	const rounds = 2000
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for r := 0; r < rounds; r++ {
		for _, m := range msgs {
			if _, err := wire.Unmarshal(wire.Marshal(m)); err != nil {
				panic(err)
			}
		}
	}
	runtime.ReadMemStats(&b)
	return map[string]metric{
		"wire.encode_ns":      {enc, "ns"},
		"wire.decode_ns":      {dec, "ns"},
		"wire.allocs_per_msg": {float64(b.Mallocs-a.Mallocs) / float64(rounds*len(msgs)), "1"},
	}
}

// marshalTimings times the replica codec and the delta diff and patch on
// the workload's replica size and write pattern.
func marshalTimings(w workload) map[string]metric {
	codec := marshal.NewFast(mocha.NativeCost())
	old, new := replicaBlobs(w.size)
	src := marshal.Bytes(make([]byte, w.size))
	if err := codec.Unmarshal(old, src); err != nil {
		panic(err) // old was just produced by the same codec
	}
	dst := marshal.Bytes(make([]byte, w.size))
	var blob []byte
	enc := timeLoop(microBudget, func() { blob, _ = codec.Marshal(src) })
	dec := timeLoop(microBudget, func() { _ = codec.Unmarshal(blob, dst) })
	var rs []marshal.Range
	diff := timeLoop(microBudget, func() { rs = marshal.DiffRanges(old, new) })
	var ops []marshal.PatchOp
	for _, r := range rs {
		ops = append(ops, marshal.PatchOp{Off: r.Off, Data: new[r.Off:r.End()]})
	}
	patch := timeLoop(microBudget, func() {
		if _, err := marshal.ApplyPatch(old, len(new), ops); err != nil {
			panic(err)
		}
	})
	return map[string]metric{
		"marshal.encode_ns": {enc, "ns"},
		"marshal.decode_ns": {dec, "ns"},
		"marshal.diff_ns":   {diff, "ns"},
		"marshal.patch_ns":  {patch, "ns"},
	}
}

// storeTimings times FileStore Put, AppendDelta and Commit on 1 KiB
// records, with the store's default group commit, in a fresh directory
// that is removed afterwards.
func storeTimings(workDir string) (map[string]metric, error) {
	const locks, steps, recordBytes = 256, 4096, 1024
	dir, err := os.MkdirTemp(workDir, "storebench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	fs, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	defer fs.Close()

	codec := marshal.NewFast(mocha.NativeCost())
	base, _ := codec.Marshal(marshal.Bytes(make([]byte, recordBytes)))
	cur := make([][]byte, locks)
	ver := make([]uint64, locks)
	var putNS time.Duration
	for i := 0; i < locks; i++ {
		cur[i], ver[i] = base, 1
		start := time.Now()
		err := fs.Put(store.Record{Lock: wire.LockID(i + 1), Version: 1, Replicas: []wire.ReplicaPayload{{Name: "r", Data: base}}})
		putNS += time.Since(start)
		if err != nil {
			return nil, err
		}
	}
	// Delta steps are built before timing: each bumps the counter and
	// flips one byte, like one durable-ur release.
	type step struct {
		lock  int
		delta []wire.DeltaPayload
	}
	plan := make([]step, steps)
	for s := range plan {
		i := s % locks
		next := append([]byte(nil), cur[i]...)
		binary.LittleEndian.PutUint64(next[5:], binary.LittleEndian.Uint64(next[5:])+1)
		next[5+8+(s*37)%(recordBytes-8)] ^= 0xa5
		plan[s] = step{i, []wire.DeltaPayload{{Name: "r", NewLen: uint32(len(next)), Checksum: marshal.Checksum(next), Ops: deltaOps(cur[i], next)}}}
		cur[i] = next
	}
	var deltaNS, commitNS time.Duration
	for _, s := range plan {
		lock := wire.LockID(s.lock + 1)
		start := time.Now()
		err := fs.AppendDelta(ver[s.lock], store.Record{Lock: lock, Version: ver[s.lock] + 1, Dirty: true}, s.delta)
		deltaNS += time.Since(start)
		if err != nil {
			return nil, err
		}
		ver[s.lock]++
		start = time.Now()
		err = fs.Commit(lock, ver[s.lock])
		commitNS += time.Since(start)
		if err != nil {
			return nil, err
		}
	}
	return map[string]metric{
		"store.put_ns":          {float64(putNS) / locks, "ns"},
		"store.append_delta_ns": {float64(deltaNS) / steps, "ns"},
		"store.commit_ns":       {float64(commitNS) / steps, "ns"},
	}, nil
}

// sendDeliverMicros times mnet Port.Send to the receiving port's handler
// over two endpoints on a zero-delay simulated network, cycling through
// the workload's marshaled message mix.
func sendDeliverMicros(ctx context.Context, msgs []wire.Payload) (float64, error) {
	sn := transport.NewSimNetwork(netsim.Config{Profile: netsim.Perfect(), Seed: netSeed})
	defer sn.Close()
	var ports []*mnet.Port
	for id := netsim.NodeID(1); id <= 2; id++ {
		stack, err := sn.NewStack(id)
		if err != nil {
			return 0, err
		}
		ep := mnet.NewEndpoint(stack.Datagram(), mnet.Config{})
		defer ep.Close()
		p, err := ep.OpenPort(40)
		if err != nil {
			return 0, err
		}
		ports = append(ports, p)
	}
	base := time.Now()
	delivered := make(chan int64, 1)
	ports[1].SetHandler(func(mnet.Message) { delivered <- int64(time.Since(base)) })
	blobs := make([][]byte, len(msgs))
	for i, m := range msgs {
		blobs[i] = wire.Marshal(m)
	}
	to := ports[1].Addr()
	var sum int64
	const sends = 4000
	for i := 0; i < sends; i++ {
		start := int64(time.Since(base))
		if err := ports[0].Send(ctx, to, blobs[i%len(blobs)]); err != nil {
			return 0, err
		}
		select {
		case at := <-delivered:
			sum += at - start
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}
	return float64(sum) / sends / 1e3, nil
}

// fsType names the file system holding dir, for the store policy line.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown file system"
	}
	names := map[uint64]string{0x01021994: "tmpfs", 0xef53: "ext4", 0x794c7630: "overlayfs", 0x58465342: "xfs", 0x9123683e: "btrfs"}
	if n, ok := names[uint64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("file system %#x", uint64(st.Type))
}
