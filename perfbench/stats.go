package main

import (
	"math/bits"
	"sort"
)

// histSub is log2 of the sub-buckets per power of two in a latency
// histogram: 128 sub-buckets keep every bucket within 0.8% of its value,
// and values are interpolated inside a bucket.
const histSub = 7

// histBuckets covers every duration up to 2^40 ns (18 minutes).
const histBuckets = (40 - histSub + 1) << histSub

// hist counts nanosecond durations in log-linear buckets: exact below
// 2^histSub ns, then 2^histSub buckets per power of two. A fixed array
// keeps recording free of allocation and the benchmark's own heap small,
// so it does not change how often the program under test collects garbage.
type hist struct {
	n      int64
	counts [histBuckets]uint32
}

func bucketOf(v int64) int {
	if v < 1<<histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - histSub - 1
	i := (shift+1)<<histSub + int(v>>shift) - 1<<histSub
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// bucketSpan returns the lowest value bucket i holds and its width.
func bucketSpan(i int) (lo, width float64) {
	if i < 1<<histSub {
		return float64(i), 1
	}
	shift := i>>histSub - 1
	m := i&(1<<histSub-1) + 1<<histSub
	return float64(int64(m) << shift), float64(int64(1) << shift)
}

func (h *hist) add(v int64) {
	h.counts[bucketOf(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile estimates the q-quantile in nanoseconds, placing the sample of
// rank q·(n−1) evenly inside its bucket; 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	var below float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if rank < below+float64(c) {
			lo, w := bucketSpan(i)
			return lo + w*(rank-below+0.5)/float64(c)
		}
		below += float64(c)
	}
	lo, w := bucketSpan(histBuckets - 1)
	return lo + w
}

// recorder collects one client's cycles that end inside the timed window,
// per one-second sub-window. Only the client's goroutine writes it.
type recorder struct {
	from, to, sub int64 // window bounds and sub-window length, ns since the rig's base
	acq, rel      []hist
	attempted     int64
	failed        int64
	selfNS        int64   // Lock return → Unlock call, summed
	spans         []opRec // the window's first cycles, for the span dump
}

// newRecorder prepares a recorder for the window [from, from+window),
// split into sub-windows of sub ns (one sub-window when shorter).
func newRecorder(from, window, sub int64, spans int) *recorder {
	n := int(window / sub)
	if n < 1 {
		n, sub = 1, window
	}
	return &recorder{
		from: from, to: from + int64(n)*sub, sub: sub,
		acq: make([]hist, n), rel: make([]hist, n),
		spans: make([]opRec, 0, spans),
	}
}

func (r *recorder) add(op opRec) {
	if op.end < r.from || op.end >= r.to {
		return
	}
	r.attempted++
	if op.failed {
		r.failed++
		return
	}
	k := (op.end - r.from) / r.sub
	r.acq[k].add(op.locked - op.start)
	r.rel[k].add(op.end - op.release)
	r.selfNS += op.release - op.locked
	if len(r.spans) < cap(r.spans) {
		r.spans = append(r.spans, op)
	}
}

// windowStats summarises the cycles that ended inside a timed window.
type windowStats struct {
	cycles    int64 // successful cycles
	attempted int64
	failed    int64
	// Wall-clock figures are medians over one-second sub-windows, so a
	// burst of interference from other tenants of the host moves one
	// sub-window rather than the whole run.
	opsPerS float64
	acqP50  float64 // ms
	acqP90  float64
	relP50  float64
	relP90  float64
	// Pooled over the whole window: the tails, reported but not gated.
	acqP99, acqP999, relP99 float64
	acqN, relN              int64
	selfMeanUS              float64
	// subOps is the throughput of each sub-window, a diagnostic of how
	// steady the host was during the run.
	subOps []float64
}

// analyse merges the clients' recorders into the window's figures.
func analyse(recs []*recorder) windowStats {
	var s windowStats
	var all [2]hist // acquire, release over the whole window
	var ops, a50, a90, r50, r90 []float64
	var selfNS int64
	for k := range recs[0].acq {
		var acq, rel hist
		for _, r := range recs {
			acq.merge(&r.acq[k])
			rel.merge(&r.rel[k])
		}
		all[0].merge(&acq)
		all[1].merge(&rel)
		ops = append(ops, float64(acq.n)/(float64(recs[0].sub)/1e9))
		if acq.n == 0 {
			continue
		}
		a50 = append(a50, acq.quantile(0.50)/1e6)
		a90 = append(a90, acq.quantile(0.90)/1e6)
		r50 = append(r50, rel.quantile(0.50)/1e6)
		r90 = append(r90, rel.quantile(0.90)/1e6)
	}
	for _, r := range recs {
		s.attempted += r.attempted
		s.failed += r.failed
		selfNS += r.selfNS
	}
	s.cycles = all[0].n
	s.subOps = append([]float64(nil), ops...)
	s.opsPerS = median(ops)
	s.acqP50, s.acqP90 = median(a50), median(a90)
	s.relP50, s.relP90 = median(r50), median(r90)
	s.acqN, s.relN = all[0].n, all[1].n
	s.acqP99, s.acqP999 = all[0].quantile(0.99)/1e6, all[0].quantile(0.999)/1e6
	s.relP99 = all[1].quantile(0.99) / 1e6
	if s.cycles > 0 {
		s.selfMeanUS = float64(selfNS) / float64(s.cycles) / 1e3
	}
	return s
}

// median returns the middle value of xs, interpolating between the two
// middle values of an even count (0 when empty); xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}
