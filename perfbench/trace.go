package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// span is one interval on a key frame's path. Spans of one key frame share
// (Session, KF): the client's session ID and the key frame's ordinal on the
// connection (the n-th key frame pairs with the n-th diff).
type span struct {
	Session int    `json:"session"`
	KF      int    `json:"kf"`
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Self    int64  `json:"self_ns"`
}

// A span runs from the boundary it is named after to the next boundary on
// the key frame's path, so the children of the root partition it:
//
//	keyframe           client Send call → first frame start after the diff arrived
//	  client.kf_send   client Send call → server Recv return   (uplink)
//	  server.kf_recv   server Recv return → server Send call   (service)
//	    teacher.batch  InferBatch start → end for the batch holding the frame
//	  server.diff_send server Send call → client Recv return   (downlink)
//	  client.diff_recv client Recv return → next frame start    (wait to apply)
const rootSpan = "keyframe"

// buildSpans joins the client, server and teacher logs of a traced run into
// spans, all with session 1. It returns none unless the key-frame and diff
// counts match on both ends, as the checks require.
func buildSpans(r *runResult) []span {
	cl, sl := r.client.log, serverLog(r)
	if sl == nil || len(sl.kfs) != len(cl.kfs) || len(sl.diffs) != len(cl.diffs) || len(cl.kfs) != len(cl.diffs) {
		return nil
	}
	batchOf := batches(r)
	done := r.client.src.done
	var out []span
	for n, sent := range cl.kfs {
		recv := cl.diffs[n].ret
		// The diff is applied by the client's loop; the first frame that
		// starts after it arrived is the earliest that can see it.
		i := sort.Search(len(done), func(i int) bool { return done[i] >= recv })
		applied := recv
		if i < len(done) {
			applied = done[i]
		}
		sp := func(name, parent string, start, end int64) span {
			return span{Session: 1, KF: n + 1, Name: name, Parent: parent, Start: start, End: end}
		}
		kf := []span{
			sp(rootSpan, "", sent.call, applied),
			sp("client.kf_send", rootSpan, sent.call, sl.kfs[n].ret),
			sp("server.kf_recv", rootSpan, sl.kfs[n].ret, sl.diffs[n].call),
			sp("server.diff_send", rootSpan, sl.diffs[n].call, recv),
			sp("client.diff_recv", rootSpan, recv, applied),
		}
		if b, ok := batchOf[int(sl.kfs[n].frame)]; ok {
			kf = append(kf, sp("teacher.batch", "server.kf_recv", b.start, b.end))
		}
		for i := range kf {
			var children []span
			for _, ch := range kf {
				if ch.Parent == kf[i].Name {
					children = append(children, ch)
				}
			}
			kf[i].Self = selfTime(kf[i], children)
		}
		out = append(out, kf...)
	}
	return out
}

// serverLog is the traced run's server conn log, or nil if the server did
// not accept exactly one connection.
func serverLog(r *runResult) *connLog {
	if len(r.sessions) != 1 {
		return nil
	}
	return r.sessions[0].log
}

// batches indexes a traced run's teacher calls by the frame they labelled.
func batches(r *runResult) map[int]batchStamp {
	out := map[int]batchStamp{}
	for _, b := range r.tutor.batches {
		out[b.frame] = b
	}
	return out
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(s span, children []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, s.Start), min(c.End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, end := int64(0), s.Start
	for _, x := range ivs {
		if x.a > end {
			end = x.a
		}
		if x.b > end {
			covered += x.b - end
			end = x.b
		}
	}
	return s.End - s.Start - covered
}

// spanSummary is the per-name median duration and self time.
type spanSummary struct {
	Name      string  `json:"name"`
	Count     int     `json:"count"`
	P50MS     float64 `json:"p50_ms"`
	SelfP50MS float64 `json:"self_p50_ms"`
}

func summarise(spans []span) []spanSummary {
	dur, self := map[string][]float64{}, map[string][]float64{}
	var names []string
	for _, s := range spans {
		if _, seen := dur[s.Name]; !seen {
			names = append(names, s.Name)
		}
		dur[s.Name] = append(dur[s.Name], ms(s.End-s.Start))
		self[s.Name] = append(self[s.Name], ms(s.Self))
	}
	out := make([]spanSummary, len(names))
	for i, n := range names {
		out[i] = spanSummary{Name: n, Count: len(dur[n]), P50MS: median(dur[n]), SelfP50MS: median(self[n])}
	}
	return out
}

// writeSpans writes the host stamp, the per-name summary and then one span
// per line as JSON.
func writeSpans(path string, host hostStamp, sum []spanSummary, spans []span) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"host": host, "summary": sum}); err != nil {
		return err
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("write span: %w", err)
		}
	}
	return w.Flush()
}
