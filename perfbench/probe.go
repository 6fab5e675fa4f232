package main

import (
	"math/rand"
	"strings"
	"time"

	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/nn"
	"repro/internal/teacher"
	"repro/internal/tensor"
	"repro/internal/transport"
	"repro/internal/video"
)

// The probes call single layers directly, on the workload's own frames and
// the student the run trained, to state each stage's cost in the paper's
// Table 1 terms.

// probeSample picks up to n frames spread evenly over frames.
func probeSample(frames []video.Frame, n int) []video.Frame {
	if len(frames) <= n {
		return frames
	}
	out := make([]video.Frame, n)
	for i := range out {
		out[i] = frames[i*len(frames)/n]
	}
	return out
}

// timeEach returns the median wall time of f over each argument index.
func timeEach(n int, f func(i int)) time.Duration {
	ts := make([]float64, n)
	for i := range ts {
		start := time.Now()
		f(i)
		ts[i] = float64(time.Since(start))
	}
	return time.Duration(median(ts))
}

// studentInfer is t_si: the median Student.Infer time on the frames.
func studentInfer(s *nn.Student, frames []video.Frame) time.Duration {
	s.Infer(frames[0].Image) // size the inference workspace
	return timeEach(len(frames), func(i int) { s.Infer(frames[i].Image) })
}

// convLevels gives the resolution divisor of each student layer's output,
// by parameter-name prefix (see nn.Student.Forward).
var convLevels = []struct {
	prefix string
	div    int
}{
	{"in1.", 2}, {"in2.", 4}, {"sb1.", 4}, {"sb2.", 8}, {"sb3.", 8},
	{"sb4.", 8}, {"sb5.", 8}, {"sb6.", 4}, {"out1.", 2}, {"out2.", 2}, {"out3.", 1},
}

// largestConvGEMM returns the conv-as-GEMM shape (m output pixels, n output
// channels, k = C·KH·KW) with the most flops in the student at h×w input.
func largestConvGEMM(s *nn.Student, h, w int) (m, n, k int) {
	best := 0
	for _, p := range s.Params.All() {
		if p.Value.Rank() != 4 {
			continue
		}
		for _, l := range convLevels {
			if !strings.HasPrefix(p.Name, l.prefix) {
				continue
			}
			mm := (h / l.div) * (w / l.div)
			oc, ckk := p.Value.Dim(0), p.Value.Dim(1)*p.Value.Dim(2)*p.Value.Dim(3)
			if f := mm * oc * ckk; f > best {
				best, m, n, k = f, mm, oc, ckk
			}
		}
	}
	return m, n, k
}

// gemmGFLOPS times the default backend's MatMulInto at the given shape;
// flops are counted as 2mnk.
func gemmGFLOPS(m, n, k int) float64 {
	rng := rand.New(rand.NewSource(1))
	a, b, dst := make([]float32, m*k), make([]float32, k*n), make([]float32, m*n)
	for i := range a {
		a[i] = rng.Float32()
	}
	for i := range b {
		b[i] = rng.Float32()
	}
	bk := tensor.DefaultBackend()
	const reps = 20
	bk.MatMulInto(dst, a, b, m, n, k, false)
	per := timeEach(15, func(int) {
		for r := 0; r < reps; r++ {
			bk.MatMulInto(dst, a, b, m, n, k, false)
		}
	}) / reps
	return 2 * float64(m) * float64(n) * float64(k) / per.Seconds() / 1e9
}

// distillStep is t_sd: a fresh distiller over the pre-trained student
// trains on every MIN_STRIDE-th frame against the oracle's labels.
func distillStep(cfg core.Config, base *nn.Student, frames []video.Frame, seed int64) time.Duration {
	d := core.NewDistiller(cfg, base.Clone())
	oracle := teacher.NewOracle(oracleSeed(seed))
	var steps int
	var busy time.Duration
	for i := 0; i < len(frames) && i < 16*cfg.MinStride; i += cfg.MinStride {
		tr := d.Train(frames[i], oracle.Infer(frames[i]))
		steps += tr.Steps
		busy += tr.StepTime
	}
	if steps == 0 {
		return 0
	}
	return busy / time.Duration(steps)
}

// teacherInfer is t_ti: the median oracle Infer time on the frames.
func teacherInfer(frames []video.Frame, seed int64) time.Duration {
	o := teacher.NewOracle(oracleSeed(seed))
	return timeEach(len(frames), func(i int) { o.Infer(frames[i]) })
}

// codecCosts times the workload's key-frame and diff codecs and returns
// the wire bytes one key frame and its diff take (s_net).
type codecCosts struct {
	kfEncode, kfDecode, diffEncode, diffDecode time.Duration
	kfBytes, diffBytes                         int
}

func probeCodecs(w workload, s *nn.Student, frames []video.Frame) (codecCosts, error) {
	var cc codecCosts
	kfs := make([][]byte, len(frames))
	cc.kfEncode = timeEach(len(frames), func(i int) {
		f := frames[i]
		kfs[i] = transport.EncodeKeyFrame(transport.KeyFrame{FrameIndex: uint32(f.Index), Image: f.Image, Label: f.Label, Seq: uint64(i + 1)})
	})
	var err error
	cc.kfDecode = timeEach(len(kfs), func(i int) {
		if _, e := transport.DecodeKeyFrame(kfs[i]); e != nil {
			err = e
		}
	})
	if err != nil {
		return cc, err
	}
	cc.kfBytes = transport.FrameOverhead + len(kfs[0])

	diff := transport.StudentDiff{FrameIndex: 1, Metric: 0.5, Params: nn.TrainableSubset(s.Params), Seq: 1}
	encode := func() ([]byte, error) { return transport.EncodeStudentDiff(diff) }
	decode := func(b []byte) error { _, e := transport.DecodeStudentDiff(b); return e }
	if w.linkPolicy != "" {
		p, e := netsim.PolicyByName(w.linkPolicy)
		if e != nil {
			return cc, e
		}
		dec := p.Decide(netsim.LinkObservation{})
		encode = func() ([]byte, error) { return core.EncodeAdaptiveDiff(diff, dec) }
		decode = func(b []byte) error { _, _, e := core.DecodeAdaptiveDiff(b); return e }
	}
	const reps = 15
	bodies := make([][]byte, reps)
	cc.diffEncode = timeEach(reps, func(i int) {
		b, e := encode()
		if e != nil {
			err = e
		}
		bodies[i] = b
	})
	if err != nil {
		return cc, err
	}
	cc.diffDecode = timeEach(reps, func(i int) {
		if e := decode(bodies[i]); e != nil {
			err = e
		}
	})
	cc.diffBytes = transport.FrameOverhead + len(bodies[0])
	return cc, err
}

// frozenMIoU scores the pre-trained student, never distilled, on the same
// eval frames and oracle labels a client scored its live student on.
func frozenMIoU(base *nn.Student, frames []video.Frame, seed int64) float64 {
	s := base.Clone()
	o := teacher.NewOracle(oracleSeed(seed))
	cm := metrics.NewConfusionMatrix(s.Config.NumClasses)
	for i := 0; i < len(frames); i += evalEvery {
		mask, _ := s.Infer(frames[i].Image)
		cm.Add(mask, o.Infer(frames[i]))
	}
	return cm.MeanIoU()
}

// throughputBounds feeds the measured Table 1 terms to the §4.4 model.
func throughputBounds(cfg core.Config, tsi, tsd, tti, tnet time.Duration, snet int) (lo, hi float64, err error) {
	in := bounds.Inputs{
		TSI: tsi, TSD: tsd, TTI: tti, TNet: tnet, SNet: snet,
		MinStride: cfg.MinStride, MaxStride: cfg.MaxStride, MaxUpdates: cfg.MaxUpdates,
	}
	if err := in.Validate(); err != nil {
		return 0, 0, err
	}
	return in.ThroughputLower(), in.ThroughputUpper(), nil
}
