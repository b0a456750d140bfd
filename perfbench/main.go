// Command perfbench is the lock-service benchmark: closed-loop clients at
// two sites of an in-process three-site Mocha cluster acquire, mutate or
// read, and release replica locks, and the run reports what one operation
// costs end to end (latency, throughput, packets, bytes, allocations) or,
// with -trace 1, layer by layer. Every run checks its own result: each
// lock's write counter must equal the writes the clients committed.
//
//	go build -o perfbench . && ./perfbench -workload owned-uniform -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. README.md explains the
// workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"time"
)

// setupRepeats is how many times an end-to-end run builds the cluster;
// setup_s is the median and the last build is the one measured.
const setupRepeats = 11

// lead is how long clients run before the timed window opens, so the
// window sees the closed loop in steady state.
const lead = 500 * time.Millisecond

// subWindow is the span each wall-clock figure is computed over before
// the median across sub-windows is taken.
const subWindow = time.Second

// runBudget bounds one whole run: operations still pending when it
// expires fail and are counted, so a wedged cluster cannot hang the run.
const runBudget = 170 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: owned-uniform, shared-zipf-rw or durable-ur")
	seed := flag.Int64("seed", 1, "workload seed: lock draws and written bytes")
	seconds := flag.Int("seconds", 10, "seconds the run measures for (the traced run splits them over two windows)")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	out := flag.String("out", ".", "directory for the span dump and scratch files (store directories)")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	work, err := os.MkdirTemp(*out, "work-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)

	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()

	fmt.Printf("host: cpu_loop_ms=%.3f gomaxprocs=%d (diagnostic only, not gated)\n",
		hostLoopMillis(), runtime.GOMAXPROCS(0))
	b := bench{w: w, seed: *seed, window: time.Duration(*seconds) * time.Second, work: work, out: *out}
	var res result
	if *trace == 1 {
		res, err = b.traced(ctx)
	} else {
		res, err = b.endToEnd(ctx)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// hostLoopMillis times a fixed pure-Go integer loop. Host drift moves
// every workload at once; printed beside the metrics, this number lets a
// noisy verdict be traced to the host rather than to the code.
func hostLoopMillis() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 50_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	sink.Store(x)
	return float64(time.Since(start)) / 1e6
}

var sink atomic.Uint64

type bench struct {
	w      workload
	seed   int64
	window time.Duration
	work   string
	out    string
}

// sample is the state read at a window boundary.
type sample struct {
	at         int64 // ns since the rig's base
	pkts, wire int64
	mallocs    uint64
	allocBytes uint64
	layers     layerSnap
}

// measured is one timed window: its cycle statistics and the counter
// deltas across it.
type measured struct {
	windowStats
	seconds    float64
	pkts, wire int64
	mallocs    uint64
	allocBytes uint64
	from, to   layerSnap
	spans      []opRec
	qdepth     float64
}

func (m measured) perOp(v float64) float64 {
	if m.cycles == 0 {
		return 0
	}
	return v / float64(m.cycles)
}

// measure runs the rig's clients, times one window after the lead, and
// stops them. The window's bounds are fixed before the clients start, so
// each client files a cycle by its end time as it completes. With traced
// set it also snapshots every layer's counters and samples the sync
// queue depth.
func (b bench) measure(ctx context.Context, r *rig, traced bool) measured {
	read := func() sample {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		ns := r.cluster.NetStats()
		s := sample{pkts: ns.Sent, wire: ns.Bytes, mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc}
		if traced {
			s.layers = snapLayers(r.cluster)
		}
		s.at = int64(time.Since(r.base))
		return s
	}
	if r.storeDir != "" {
		fmt.Printf("store: %s on %s, fresh per cluster and removed after; fsync by group commit every 5ms (store default)\n",
			r.storeDir, fsType(r.storeDir))
	}
	from := time.Since(r.base) + lead
	for _, cli := range r.clients {
		cli.rec = newRecorder(int64(from), int64(b.window), int64(subWindow), spanDumpOps/numClients)
	}
	// The window ends where its last whole sub-window does, so the
	// counters and the cycles cover the same span.
	to := time.Duration(r.clients[0].rec.to)
	var stop atomic.Bool
	wait := r.run(ctx, &stop)
	time.Sleep(time.Until(r.base.Add(from)))
	var sampler *depthSampler
	if traced {
		sampler = startDepthSampler(r.cluster.Metrics())
	}
	s0 := read()
	time.Sleep(time.Until(r.base.Add(to)))
	s1 := read()
	stop.Store(true)
	wait()
	m := measured{
		seconds:    float64(s1.at-s0.at) / 1e9,
		pkts:       s1.pkts - s0.pkts,
		wire:       s1.wire - s0.wire,
		mallocs:    s1.mallocs - s0.mallocs,
		allocBytes: s1.allocBytes - s0.allocBytes,
		from:       s0.layers,
		to:         s1.layers,
	}
	if sampler != nil {
		m.qdepth = sampler.stop()
	}
	recs := make([]*recorder, 0, numClients)
	for _, cli := range r.clients {
		recs = append(recs, cli.rec)
		m.spans = append(m.spans, cli.rec.spans...)
	}
	m.windowStats = analyse(recs)
	fmt.Printf("window: %.1fs, ops/s per %v sub-window %.0f (diagnostic only)\n", m.seconds, subWindow, m.subOps)
	return m
}

// check verifies the rig's counters after a window and folds the
// outcome into the result's correctness fields.
func check(ctx context.Context, r *rig, res *result) {
	reads, mismatched, failed := r.verify(ctx)
	var regressed int64
	for _, cli := range r.clients {
		regressed += cli.regressed
	}
	res.Attempted += int64(reads)
	res.Failed += failed
	if mismatched > 0 || regressed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d final reads found a wrong counter, %d reads saw a counter go backwards\n",
			r.w.name, mismatched, regressed)
		res.Correct = false
	}
}

// endToEnd is the untraced run: setup_s over several builds, then one
// timed window on the last build.
func (b bench) endToEnd(ctx context.Context) (result, error) {
	var r *rig
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		if r != nil {
			r.close()
		}
		start := time.Now()
		var err error
		if r, err = newRig(ctx, b.w, b.seed, nil, b.work); err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer r.close()

	m := b.measure(ctx, r, false)
	res := result{Correct: true, Attempted: m.attempted, Failed: m.failed}
	check(ctx, r, &res)
	if m.cycles == 0 {
		return result{}, fmt.Errorf("no cycle completed in the window")
	}
	res.Metrics = map[string]metric{
		"ops_per_s":          {m.opsPerS, "1/s"},
		"acquire_p50_ms":     {m.acqP50, "ms"},
		"acquire_p90_ms":     {m.acqP90, "ms"},
		"release_p50_ms":     {m.relP50, "ms"},
		"release_p90_ms":     {m.relP90, "ms"},
		"net_pkts_per_op":    {m.perOp(float64(m.pkts)), "1"},
		"net_bytes_per_op":   {m.perOp(float64(m.wire)), "B"},
		"allocs_per_op":      {m.perOp(float64(m.mallocs)), "1"},
		"alloc_bytes_per_op": {m.perOp(float64(m.allocBytes)), "B"},
		"setup_s":            {median(setups), "s"},
	}
	return res, nil
}
