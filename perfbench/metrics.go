package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"
)

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) {
	m[name] = metric{Value: v, Unit: unit}
}

// invalid returns, sorted, the metrics that are NaN or infinite — a
// division by zero or an empty sample — and sets them to 0 so the result
// still encodes as JSON. Each one fails the run.
func (m metricSet) invalid() []string {
	var bad []string
	for name, x := range m {
		if math.IsNaN(x.Value) || math.IsInf(x.Value, 0) {
			bad = append(bad, name)
			m[name] = metric{Unit: x.Unit}
		}
	}
	sort.Strings(bad)
	return bad
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN for an empty sample). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailWindows is how many consecutive stretches of a run a tail quantile is
// taken over.
const tailWindows = 4

// tailQuantile splits xs, in time order, into tailWindows consecutive
// stretches and returns the median of their q-quantiles. A stall of the
// shared host moves the tail of the stretch it lands in, not the result;
// a pooled p99 sits where a handful of stalled key frames decide it. xs is
// left unchanged.
func tailQuantile(xs []float64, q float64) float64 {
	qs := make([]float64, tailWindows)
	for i := range qs {
		w := xs[i*len(xs)/tailWindows : (i+1)*len(xs)/tailWindows]
		qs[i] = quantile(append([]float64(nil), w...), q)
	}
	return median(qs)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// verdict is the outcome of the output checks on one run.
type verdict struct {
	attempted int
	problems  []string
}

func (v *verdict) fail(format string, args ...any) {
	v.problems = append(v.problems, fmt.Sprintf(format, args...))
}

func (v *verdict) ok() bool { return len(v.problems) == 0 }

// failed counts the frames a failed check fails: all of them, since the run
// has one session.
func (v *verdict) failed() int {
	if v.ok() {
		return 0
	}
	return v.attempted
}

// check runs the benchmark's output checks. Every check runs, so a report
// lists each failure, not only the first.
func check(r *runResult) *verdict {
	cr := r.client
	v := &verdict{attempted: len(cr.src.frames)}
	if cr.err != nil {
		v.fail("client run failed: %v", cr.err)
	}
	res := cr.result()
	if res.Frames != len(cr.src.frames) || len(cr.src.done) != len(cr.src.frames) {
		v.fail("completed %d of %d frames (%d timed)", res.Frames, len(cr.src.frames), len(cr.src.done))
	}
	if k, d := len(cr.log.kfs), len(cr.log.diffs); k != d || k != res.KeyFrames {
		v.fail("%d key frames sent, %d counted, %d diffs received", k, res.KeyFrames, d)
	}
	if int64(res.KeyFrames) != r.stats.KeyFrames {
		v.fail("client sent %d key frames, server distilled %d", res.KeyFrames, r.stats.KeyFrames)
	}
	if !(res.MeanIoU > 0 && res.MeanIoU <= 1) {
		v.fail("mIoU %v outside (0, 1]", res.MeanIoU)
	}
	if res.Reconnects != 0 {
		v.fail("client reconnected %d times on a fault-free link", res.Reconnects)
	}
	if len(r.sessions) != 1 {
		v.fail("server accepted %d sessions, want 1", len(r.sessions))
	}
	for _, s := range r.sessions {
		if s.err != nil {
			v.fail("session error: %v", s.err)
		}
	}
	if r.up <= 0 || r.down <= 0 {
		v.fail("byte totals up %d down %d, want both nonzero", r.up, r.down)
	}
	return v
}

// frameLatencies returns every completed frame's latency in ms: from its
// start to its completion.
func frameLatencies(r *runResult) []float64 {
	src := r.client.src
	out := make([]float64, len(src.done))
	for i, d := range src.done {
		out[i] = ms(d - src.start[i])
	}
	return out
}

// staleness pairs the n-th key-frame Send call with the n-th diff Recv
// return on the client conn.
func staleness(r *runResult) []float64 {
	log := r.client.log
	var out []float64
	for n, d := range log.diffs {
		if n < len(log.kfs) {
			out = append(out, ms(d.ret-log.kfs[n].call))
		}
	}
	return out
}

// fps is frames completed ÷ wall time from the first frame to the last
// completion.
func fps(r *runResult) float64 {
	return float64(len(r.client.src.done)) / (float64(r.end-r.start) / 1e9)
}

// peakRSSMB is the process's peak resident set in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// endToEnd computes the metrics a user of the system sees, from the
// measured run and the set-up times of every set-up in this process.
func endToEnd(r *runResult, setups []time.Duration, frameBytes int64) metricSet {
	m := metricSet{}
	ss := make([]float64, len(setups))
	for i, s := range setups {
		ss[i] = s.Seconds()
	}
	m.set("setup_s", median(ss), "s")
	m.set("fps", fps(r), "1/s")
	lat := frameLatencies(r)
	// The tails first: quantile sorts its sample, and the tails need it in
	// time order.
	m.set("frame_latency_p99_ms", tailQuantile(lat, 0.99), "ms")
	m.set("frame_latency_p50_ms", quantile(lat, 0.50), "ms")
	st := staleness(r)
	m.set("update_staleness_p90_ms", tailQuantile(st, 0.90), "ms")
	m.set("update_staleness_p50_ms", quantile(st, 0.50), "ms")
	m.set("miou", r.client.result().MeanIoU, "ratio")
	frames := float64(len(r.client.src.done))
	m.set("uplink_bytes_per_frame", float64(r.up)/frames, "B")
	m.set("downlink_bytes_per_frame", float64(r.down)/frames, "B")
	m.set("peak_rss_mb", peakRSSMB()-float64(frameBytes)/(1<<20), "MiB")
	return m
}
