package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/netsim"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/teacher"
	"repro/internal/transport"
	"repro/internal/video"
)

// pretrainSteps matches the pre-training budget CI uses.
const pretrainSteps = 120

// evalEvery is how often the client scores its student against the oracle.
const evalEvery = 4

// stream is the category every workload's one client plays.
var stream = video.Category{Camera: video.Moving, Scenery: video.Street}

// workload is one traffic shape the benchmark drives: one closed-loop
// client on one session.
type workload struct {
	name string
	// rate is the nominal frames per second that sets the frame budget,
	// seconds × rate, so a run lasts about --seconds on a 2-core host.
	rate       float64
	bandwidth  netsim.Mbps // 0: unthrottled loopback
	linkPolicy string      // "" sends raw diffs
}

var workloads = []workload{
	{name: "solo-maxfps", rate: 50},
	{name: "narrowband-8mbps", rate: 37, bandwidth: 8, linkPolicy: "static:int8"},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// oracleSeed is the seed of the server's teacher; the client evaluates
// against an oracle with the same seed.
func oracleSeed(seed int64) int64 { return seed + 997 }

// clientRun is what the client left behind.
type clientRun struct {
	src    *source
	log    *connLog
	eval   *evalTeacher
	cl     *core.Client // nil if the dial failed
	err    error
	dialAt int64
}

// result is the client's Result, or the zero value if it never ran.
func (cr *clientRun) result() core.ClientResult {
	if cr.cl == nil {
		return core.ClientResult{}
	}
	return cr.cl.Result
}

// serverSession is what one accepted connection left behind.
type serverSession struct {
	log *connLog // nil in an untraced run
	err error
}

// runResult is one complete pass of a workload through a fresh system.
type runResult struct {
	setup    time.Duration // start to the client's first frame
	start    int64         // that first frame
	end      int64         // Run return
	client   *clientRun
	sessions []*serverSession // every accepted connection; one is expected
	tutor    *teacherLog      // nil in an untraced run
	cost     *traceCost       // nil in an untraced run
	stats    serve.Stats
	up, down int64 // Accountant wire totals
	base     *nn.Student
}

// runSystem builds the whole system — pre-trained student, manager,
// listener, accept loop, client — and drives frames through the client.
// Set-up is timed from the first line to the client's first Source.Next.
func runSystem(w workload, seed int64, frames []video.Frame, traced bool) (*runResult, error) {
	clk := clock{epoch: time.Now()}
	cfg := core.DefaultConfig()
	pc := experiments.DefaultPretrain()
	pc.Steps = pretrainSteps
	base, err := experiments.Pretrain(pc)
	if err != nil {
		return nil, fmt.Errorf("pretrain: %w", err)
	}
	base.SetPartial(cfg.Partial)

	res := &runResult{base: base}
	if traced {
		res.cost = &traceCost{}
		res.tutor = &teacherLog{clk: clk, cost: res.cost}
	}
	mgr, err := serve.NewManager(serve.Options{
		Cfg:          cfg,
		Base:         base,
		Teacher:      wrapTeacher(teacher.NewOracle(oracleSeed(seed)), res.tutor),
		MaxSessions:  1,
		LinkPolicy:   w.linkPolicy,
		DrainTimeout: 10 * time.Second,
	})
	if err != nil {
		return nil, fmt.Errorf("manager: %w", err)
	}
	acct := &netsim.Accountant{}
	ln, err := transport.Listen("127.0.0.1:0", 0, acct)
	if err != nil {
		mgr.Close()
		return nil, err
	}

	// The accept loop: one Handle goroutine per connection, each conn
	// wrapped so the server side of the session can be timed.
	// res.sessions is read only after the loop has ended.
	var handlers sync.WaitGroup
	accepted := make(chan struct{})
	go func() {
		defer close(accepted)
		for {
			tc, err := ln.Accept()
			if err != nil {
				return
			}
			s := &serverSession{}
			if traced {
				s.log = &connLog{clk: clk, cost: res.cost}
			}
			res.sessions = append(res.sessions, s)
			handlers.Add(1)
			go func() {
				defer handlers.Done()
				s.err = mgr.Handle(wrapConn(tc, s.log))
				tc.Close()
			}()
		}
	}()

	cr := &clientRun{
		src:  newSource(clk, frames),
		log:  &connLog{clk: clk},
		eval: &evalTeacher{inner: teacher.NewOracle(oracleSeed(seed)), clk: clk, cost: res.cost},
	}
	res.client = cr
	cr.dialAt = clk.now()
	if tc, err := transport.Dial(ln.Addr(), w.bandwidth, acct); err != nil {
		cr.err = err
	} else {
		cr.cl = &core.Client{
			Cfg:         cfg,
			Student:     base.Clone(),
			EvalTeacher: cr.eval,
			EvalEvery:   evalEvery,
			SessionID:   1,
			Adaptive:    w.linkPolicy != "",
		}
		cr.err = cr.cl.Run(wrapConn(tc, cr.log), cr.src, len(frames))
		tc.Close()
	}
	cr.src.finish()
	res.end = clk.now()
	res.start = cr.src.entry
	res.setup = time.Duration(res.start)

	// The client has said goodbye, so the session ends on its own; Close
	// waits for it (force-closing it after DrainTimeout) and folds its
	// statistics.
	ln.Close()
	<-accepted
	if err := mgr.Close(); err != nil {
		return nil, fmt.Errorf("manager close: %w", err)
	}
	handlers.Wait()
	res.stats = mgr.Stats()
	res.up, res.down = acct.Totals()
	return res, nil
}
