package main

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/video"
)

// fakeRun is a run whose client completed n frames with k key frames, each
// answered by one diff, on one error-free session.
func fakeRun(n, k int) *runResult {
	cr := &clientRun{
		src: &source{frames: make([]video.Frame, n), done: make([]int64, n)},
		log: &connLog{kfs: make([]msgStamp, k), diffs: make([]msgStamp, k)},
		cl:  &core.Client{},
	}
	cr.cl.Result = core.ClientResult{Frames: n, KeyFrames: k, MeanIoU: 0.2}
	return &runResult{
		client:   cr,
		sessions: []*serverSession{{}},
		stats:    serve.Stats{KeyFrames: int64(k)},
		up:       1, down: 1,
	}
}

func TestCheckPassesACleanRun(t *testing.T) {
	if v := check(fakeRun(40, 5)); !v.ok() || v.attempted != 40 || v.failed() != 0 {
		t.Fatalf("attempted %d failed %d problems %q", v.attempted, v.failed(), v.problems)
	}
}

func TestCheckFailuresFailEveryFrame(t *testing.T) {
	for name, spoil := range map[string]func(r *runResult){
		"client error":        func(r *runResult) { r.client.err = errors.New("connection reset") },
		"no client":           func(r *runResult) { r.client.cl = nil },
		"short run":           func(r *runResult) { r.client.src.done = r.client.src.done[:39] },
		"unanswered kf":       func(r *runResult) { r.client.log.diffs = r.client.log.diffs[:4] },
		"server kf count":     func(r *runResult) { r.stats.KeyFrames = 6 },
		"mIoU out of range":   func(r *runResult) { r.client.cl.Result.MeanIoU = 0 },
		"reconnect":           func(r *runResult) { r.client.cl.Result.Reconnects = 1 },
		"session error":       func(r *runResult) { r.sessions[0].err = errors.New("handle failed") },
		"second session":      func(r *runResult) { r.sessions = append(r.sessions, &serverSession{}) },
		"no downlink traffic": func(r *runResult) { r.down = 0 },
	} {
		t.Run(name, func(t *testing.T) {
			r := fakeRun(40, 5)
			spoil(r)
			if v := check(r); v.ok() || v.failed() != 40 {
				t.Fatalf("ok %v failed %d, want false and 40", v.ok(), v.failed())
			}
		})
	}
}

func TestNonFiniteMetricFailsTheRun(t *testing.T) {
	m := metricSet{}
	m.set("fps", 12.5, "1/s")
	m.set("teacher.mean_batch", math.NaN(), "frames")
	m.set("client.eval_ms_per_call", mean(nil), "ms")
	res := newResult(&verdict{attempted: 40}, m)
	if res.Correct || res.Failed != 40 {
		t.Fatalf("correct %v failed %d, want false and 40", res.Correct, res.Failed)
	}
	if v := res.Metrics["teacher.mean_batch"].Value; v != 0 || res.Metrics["fps"].Value != 12.5 {
		t.Fatalf("metrics %v: want the NaN zeroed for encoding and fps kept", res.Metrics)
	}
}
