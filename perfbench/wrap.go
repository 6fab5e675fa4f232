package main

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netsim"
	"repro/internal/teacher"
	"repro/internal/tensor"
	"repro/internal/transport"
	"repro/internal/video"
)

// The wrappers in this file sit on the seams the program exposes — a
// video.Source, the transport.Conn on each end, the server's teacher and the
// client's eval teacher — and time the calls that cross them. Every wrapper
// forwards to the value it wraps and exposes exactly the optional interfaces
// that value has, so serve, the link policy and the batcher take the same
// paths whether the benchmark wraps them or not (see wrap_test.go).

// clock reads monotonic nanoseconds since the run's epoch.
type clock struct{ epoch time.Time }

func (c clock) now() int64 { return int64(time.Since(c.epoch)) }

// traceCost sums the time spent in bookkeeping that only a traced run does:
// the server conn's and the teachers' stamps and logs. An untraced run has
// none (a nil *traceCost) and skips that bookkeeping.
type traceCost struct{ ns atomic.Int64 }

// since adds the time from t to now; a nil c does nothing.
func (c *traceCost) since(clk clock, t int64) {
	if c != nil {
		c.ns.Add(clk.now() - t)
	}
}

// ---------------------------------------------------------------------------
// video.Source
// ---------------------------------------------------------------------------

// source replays pre-generated frames to a closed-loop client: the client
// asks for the next frame as soon as it is done with the last one. It
// records when each frame started and when the client came back for the
// next one, which is when the previous frame completed. The first Next call
// ends set-up and starts the measured period.
type source struct {
	clk    clock
	frames []video.Frame

	entry int64   // first Next entry
	start []int64 // per frame: Next entry
	done  []int64 // per frame: completion (next Next entry or Run return)
	busy  []int64 // per frame: Next return to next Next entry
	ret   int64   // previous Next return
}

func newSource(clk clock, frames []video.Frame) *source {
	n := len(frames)
	return &source{clk: clk, frames: frames,
		start: make([]int64, 0, n), done: make([]int64, 0, n), busy: make([]int64, 0, n)}
}

// Next implements video.Source.
func (s *source) Next() video.Frame {
	t := s.clk.now()
	i := len(s.start)
	if i == 0 {
		s.entry = t
	} else {
		s.done = append(s.done, t)
		s.busy = append(s.busy, t-s.ret)
	}
	if i >= len(s.frames) {
		panic("perfbench: client asked for more frames than were generated")
	}
	s.start = append(s.start, t)
	s.ret = s.clk.now()
	return s.frames[i]
}

// finish records the end of the last frame once Run has returned.
func (s *source) finish() {
	if len(s.done) < len(s.start) {
		t := s.clk.now()
		s.done = append(s.done, t)
		s.busy = append(s.busy, t-s.ret)
	}
}

// ---------------------------------------------------------------------------
// transport.Conn
// ---------------------------------------------------------------------------

// msgStamp is one protocol message crossing a conn wrapper.
type msgStamp struct {
	call, ret int64 // Send call and return, or Recv return twice
	bytes     int   // wire size including framing
	frame     uint32
}

// connLog records the key frames and diffs crossing one end of a session.
// Sends and receives happen on different goroutines, hence the lock.
type connLog struct {
	clk   clock
	cost  *traceCost // the server's log counts as tracing cost; the client's is kept in every run
	mu    sync.Mutex
	kfs   []msgStamp
	diffs []msgStamp
}

func (l *connLog) record(m transport.Message, call, ret int64) {
	st := msgStamp{call: call, ret: ret, bytes: transport.FrameOverhead + len(m.Body)}
	switch m.Type {
	case transport.MsgKeyFrame:
		if len(m.Body) >= 4 {
			st.frame = binary.LittleEndian.Uint32(m.Body)
		}
		l.mu.Lock()
		l.kfs = append(l.kfs, st)
		l.mu.Unlock()
	case transport.MsgStudentDiff:
		l.mu.Lock()
		l.diffs = append(l.diffs, st)
		l.mu.Unlock()
	}
}

// conn times Send and Recv on one end of a session; with a nil log it only
// forwards.
type conn struct {
	transport.Conn
	log *connLog
}

// Send implements transport.Conn.
func (c *conn) Send(m transport.Message) error {
	if c.log == nil {
		return c.Conn.Send(m)
	}
	call := c.log.clk.now()
	err := c.Conn.Send(m)
	ret := c.log.clk.now()
	if err == nil {
		c.log.record(m, call, ret)
	}
	c.log.cost.since(c.log.clk, ret)
	return err
}

// Recv implements transport.Conn.
func (c *conn) Recv() (transport.Message, error) {
	m, err := c.Conn.Recv()
	if c.log == nil {
		return m, err
	}
	t := c.log.clk.now()
	if err == nil {
		c.log.record(m, t, t)
	}
	c.log.cost.since(c.log.clk, t)
	return m, err
}

type observeM struct{ inner transport.Conn }

// LinkObservation forwards netsim.LinkObserver.
func (o observeM) LinkObservation() netsim.LinkObservation {
	return o.inner.(netsim.LinkObserver).LinkObservation()
}

type fecM struct{ inner transport.Conn }

type fecSetter interface{ SetFECGroup(int) }

// SetFECGroup forwards the packet layer's FEC control.
func (f fecM) SetFECGroup(k int) { f.inner.(fecSetter).SetFECGroup(k) }

// wrapConn wraps inner with a timing conn that has exactly inner's optional
// interfaces.
func wrapConn(inner transport.Conn, log *connLog) transport.Conn {
	c := &conn{Conn: inner, log: log}
	_, obs := inner.(netsim.LinkObserver)
	_, fec := inner.(fecSetter)
	switch {
	case obs && fec:
		return struct {
			*conn
			observeM
			fecM
		}{c, observeM{inner}, fecM{inner}}
	case obs:
		return struct {
			*conn
			observeM
		}{c, observeM{inner}}
	case fec:
		return struct {
			*conn
			fecM
		}{c, fecM{inner}}
	}
	return c
}

// ---------------------------------------------------------------------------
// teacher.Teacher
// ---------------------------------------------------------------------------

// teacherLog accumulates the server teacher's calls in a traced run. Calls
// arrive from the batcher's workers, serialised by its teacher lock, but the
// lock is taken here too so the log does not depend on that.
type teacherLog struct {
	clk    clock
	cost   *traceCost
	mu     sync.Mutex
	calls  int
	frames int
	busy   int64
	// batches holds, per labelled frame, the frame index and the start and
	// end of the call that labelled it.
	batches []batchStamp
}

type batchStamp struct {
	frame      int
	start, end int64
}

func (l *teacherLog) observe(frames []video.Frame, start, end int64) {
	l.mu.Lock()
	l.calls++
	l.frames += len(frames)
	l.busy += end - start
	for _, f := range frames {
		l.batches = append(l.batches, batchStamp{frame: f.Index, start: start, end: end})
	}
	l.mu.Unlock()
	l.cost.since(l.clk, end)
}

// tutor times the server's teacher; with a nil log it only forwards.
type tutor struct {
	inner teacher.Teacher
	log   *teacherLog
}

// Name implements teacher.Teacher.
func (t *tutor) Name() string { return t.inner.Name() }

// Infer implements teacher.Teacher; a lone call counts as a batch of one.
func (t *tutor) Infer(f video.Frame) []int32 {
	if t.log == nil {
		return t.inner.Infer(f)
	}
	start := t.log.clk.now()
	out := t.inner.Infer(f)
	t.log.observe([]video.Frame{f}, start, t.log.clk.now())
	return out
}

type batchM struct{ t *tutor }

// InferBatch forwards teacher.BatchInferrer.
func (b batchM) InferBatch(frames []video.Frame) [][]int32 {
	inner := b.t.inner.(teacher.BatchInferrer)
	if b.t.log == nil {
		return inner.InferBatch(frames)
	}
	start := b.t.log.clk.now()
	out := inner.InferBatch(frames)
	b.t.log.observe(frames, start, b.t.log.clk.now())
	return out
}

type labelM struct{ inner teacher.Teacher }

// RequiresLabel forwards teacher.LabelRequirer.
func (l labelM) RequiresLabel() bool { return l.inner.(teacher.LabelRequirer).RequiresLabel() }

type backendSetter interface{ SetBackend(tensor.Backend) }

type backendM struct{ inner teacher.Teacher }

// SetBackend forwards the backend pin serve.NewManager probes for.
func (b backendM) SetBackend(bk tensor.Backend) { b.inner.(backendSetter).SetBackend(bk) }

// wrapTeacher wraps inner with a timing teacher that has exactly inner's
// optional interfaces.
func wrapTeacher(inner teacher.Teacher, log *teacherLog) teacher.Teacher {
	t := &tutor{inner: inner, log: log}
	_, batch := inner.(teacher.BatchInferrer)
	_, label := inner.(teacher.LabelRequirer)
	_, backend := inner.(backendSetter)
	b, l, k := batchM{t}, labelM{inner}, backendM{inner}
	switch {
	case batch && label && backend:
		return struct {
			*tutor
			batchM
			labelM
			backendM
		}{t, b, l, k}
	case batch && label:
		return struct {
			*tutor
			batchM
			labelM
		}{t, b, l}
	case batch && backend:
		return struct {
			*tutor
			batchM
			backendM
		}{t, b, k}
	case label && backend:
		return struct {
			*tutor
			labelM
			backendM
		}{t, l, k}
	case batch:
		return struct {
			*tutor
			batchM
		}{t, b}
	case label:
		return struct {
			*tutor
			labelM
		}{t, l}
	case backend:
		return struct {
			*tutor
			backendM
		}{t, k}
	}
	return t
}

// ---------------------------------------------------------------------------
// core.Client.EvalTeacher
// ---------------------------------------------------------------------------

type inferrer interface {
	Infer(video.Frame) []int32
}

// evalTeacher times the client's mIoU oracle in a traced run (non-nil
// cost); in an untraced run it only forwards.
type evalTeacher struct {
	inner inferrer
	clk   clock
	cost  *traceCost
	calls int
	busy  int64
}

// Infer implements the core.Client.EvalTeacher interface.
func (e *evalTeacher) Infer(f video.Frame) []int32 {
	if e.cost == nil {
		return e.inner.Infer(f)
	}
	start := e.clk.now()
	out := e.inner.Infer(f)
	end := e.clk.now()
	e.busy += end - start
	e.calls++
	e.cost.since(e.clk, end)
	return out
}
