package main

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/teacher"
	"repro/internal/tensor"
	"repro/internal/transport"
	"repro/internal/video"
)

// Fake conns with every combination of the optional interfaces serve and
// the link policy probe for.

type plainConn struct{ fec *int }

func (plainConn) Send(transport.Message) error { return nil }
func (plainConn) Recv() (transport.Message, error) {
	return transport.Message{Type: transport.MsgShutdown}, nil
}
func (plainConn) Close() error { return nil }
func (plainConn) LinkObservation() netsim.LinkObservation {
	return netsim.LinkObservation{LossRate: 0.25}
}
func (c plainConn) SetFECGroup(k int) { *c.fec = k }

func connVariants() map[string]transport.Conn {
	fec := new(int)
	p := plainConn{fec: fec}
	client, _ := transport.Pipe(1, nil)
	return map[string]transport.Conn{
		"none": struct {
			transport.Conn
		}{p},
		"observer": struct {
			transport.Conn
			netsim.LinkObserver
		}{p, p},
		"fec": struct {
			transport.Conn
			fecSetter
		}{p, p},
		"both": struct {
			transport.Conn
			netsim.LinkObserver
			fecSetter
		}{p, p, p},
		"pipe": client,
		"tcp":  transport.NewTCPConn(nil, nil, false),
	}
}

func TestConnWrapperInterfaceParity(t *testing.T) {
	for name, inner := range connVariants() {
		t.Run(name, func(t *testing.T) {
			w := wrapConn(inner, &connLog{})
			_, innerObs := inner.(netsim.LinkObserver)
			_, wrapObs := w.(netsim.LinkObserver)
			if innerObs != wrapObs {
				t.Errorf("LinkObserver: inner %v, wrapper %v", innerObs, wrapObs)
			}
			_, innerFEC := inner.(fecSetter)
			_, wrapFEC := w.(fecSetter)
			if innerFEC != wrapFEC {
				t.Errorf("SetFECGroup: inner %v, wrapper %v", innerFEC, wrapFEC)
			}
			if innerObs && name != "tcp" {
				if got := w.(netsim.LinkObserver).LinkObservation(); got.LossRate != 0.25 {
					t.Errorf("LinkObservation not forwarded: %+v", got)
				}
			}
		})
	}
}

func TestConnWrapperForwardsFEC(t *testing.T) {
	fec := new(int)
	p := plainConn{fec: fec}
	w := wrapConn(struct {
		transport.Conn
		fecSetter
	}{p, p}, &connLog{})
	w.(fecSetter).SetFECGroup(4)
	if *fec != 4 {
		t.Fatalf("SetFECGroup reached the inner conn with %d, want 4", *fec)
	}
}

// Fake teachers with every combination of the optional interfaces the
// manager and the batcher probe for.

type fakeTeacher struct{ backend *tensor.Backend }

func (fakeTeacher) Name() string                { return "fake" }
func (fakeTeacher) Infer(f video.Frame) []int32 { return []int32{int32(f.Index)} }
func (t fakeTeacher) InferBatch(fs []video.Frame) [][]int32 {
	out := make([][]int32, len(fs))
	for i, f := range fs {
		out[i] = t.Infer(f)
	}
	return out
}
func (fakeTeacher) RequiresLabel() bool           { return true }
func (t fakeTeacher) SetBackend(b tensor.Backend) { *t.backend = b }

type labelRequirer interface{ RequiresLabel() bool }

type batchInferrer interface {
	InferBatch([]video.Frame) [][]int32
}

func teacherVariants() map[string]teacher.Teacher {
	out := map[string]teacher.Teacher{
		"oracle":  teacher.NewOracle(1),
		"cnn":     teacher.NewCNNTeacher(1),
		"batcher": teacher.NewBatcher(teacher.NewOracle(1), teacher.BatcherOptions{}),
	}
	ft := fakeTeacher{backend: new(tensor.Backend)}
	for mask := 0; mask < 8; mask++ {
		var v teacher.Teacher
		base := struct{ teacher.Teacher }{ft}
		switch mask {
		case 0:
			v = base
		case 1:
			v = struct {
				teacher.Teacher
				batchInferrer
			}{ft, ft}
		case 2:
			v = struct {
				teacher.Teacher
				labelRequirer
			}{ft, ft}
		case 3:
			v = struct {
				teacher.Teacher
				batchInferrer
				labelRequirer
			}{ft, ft, ft}
		case 4:
			v = struct {
				teacher.Teacher
				backendSetter
			}{ft, ft}
		case 5:
			v = struct {
				teacher.Teacher
				batchInferrer
				backendSetter
			}{ft, ft, ft}
		case 6:
			v = struct {
				teacher.Teacher
				labelRequirer
				backendSetter
			}{ft, ft, ft}
		case 7:
			v = struct {
				teacher.Teacher
				batchInferrer
				labelRequirer
				backendSetter
			}{ft, ft, ft, ft}
		}
		out[fmt.Sprintf("fake%d", mask)] = v
	}
	return out
}

func TestTeacherWrapperInterfaceParity(t *testing.T) {
	for name, inner := range teacherVariants() {
		t.Run(name, func(t *testing.T) {
			w := wrapTeacher(inner, &teacherLog{})
			for _, iface := range []reflect.Type{
				reflect.TypeFor[teacher.BatchInferrer](),
				reflect.TypeFor[teacher.LabelRequirer](),
				reflect.TypeFor[backendSetter](),
			} {
				in, out := reflect.TypeOf(inner).Implements(iface), reflect.TypeOf(w).Implements(iface)
				if in != out {
					t.Errorf("%v: inner %v, wrapper %v", iface, in, out)
				}
			}
			if lr, ok := w.(teacher.LabelRequirer); ok && lr.RequiresLabel() != inner.(teacher.LabelRequirer).RequiresLabel() {
				t.Error("RequiresLabel not forwarded")
			}
			if w.Name() != inner.Name() {
				t.Errorf("Name %q, want %q", w.Name(), inner.Name())
			}
		})
		if b, ok := inner.(*teacher.Batcher); ok {
			b.Close()
		}
	}
}

func TestTeacherWrapperForwardsAndTimes(t *testing.T) {
	g, err := video.NewGenerator(video.CategoryConfig(stream, 3))
	if err != nil {
		t.Fatal(err)
	}
	frames := []video.Frame{g.Next(), g.Next(), g.Next()}
	log := &teacherLog{clk: clock{epoch: time.Now()}, cost: &traceCost{}}
	w := wrapTeacher(teacher.NewOracle(9), log)
	got := w.(teacher.BatchInferrer).InferBatch(frames)
	want := teacher.NewOracle(9).InferBatch(frames)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("wrapped oracle labels differ from the oracle's")
	}
	if log.calls != 1 || log.frames != 3 || len(log.batches) != 3 {
		t.Fatalf("log: %d calls, %d frames, %d stamps; want 1, 3, 3", log.calls, log.frames, len(log.batches))
	}
	if log.cost.ns.Load() <= 0 {
		t.Fatal("the traced teacher's bookkeeping cost was not counted")
	}
	untraced := wrapTeacher(teacher.NewOracle(9), nil)
	if got := untraced.(teacher.BatchInferrer).InferBatch(frames); !reflect.DeepEqual(got, want) {
		t.Fatal("untraced wrapper labels differ from the oracle's")
	}

	backend := new(tensor.Backend)
	ft := fakeTeacher{backend: backend}
	wb := wrapTeacher(struct {
		teacher.Teacher
		backendSetter
	}{ft, ft}, &teacherLog{})
	ref, err := tensor.BackendByName("reference")
	if err != nil {
		t.Fatal(err)
	}
	wb.(backendSetter).SetBackend(ref)
	if *backend != ref {
		t.Fatal("SetBackend did not reach the inner teacher")
	}
}

func TestSelfTimeSubtractsCoveredUnion(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 120}}
	if got := selfTime(parent, kids); got != 100-30-10 {
		t.Fatalf("self time %d, want 60", got)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := quantile(xs, 0.5); got != 2.5 {
		t.Fatalf("median %v, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Fatalf("max %v, want 4", got)
	}
}

func TestTailQuantileIsMedianOfStretches(t *testing.T) {
	// Four stretches of 100 samples; the last one holds a stall. Each
	// stretch's max is 100+i, except the stalled one's 1000.
	var xs []float64
	for i := 0; i < 4; i++ {
		for j := 1; j <= 100; j++ {
			xs = append(xs, float64(j+i))
		}
	}
	xs[len(xs)-1] = 1000
	before := append([]float64(nil), xs...)
	if got := tailQuantile(xs, 1); got != 101.5 {
		t.Fatalf("tail %v, want 101.5 (median of 100, 101, 102, 1000)", got)
	}
	for i := range xs {
		if xs[i] != before[i] {
			t.Fatalf("sample changed at %d", i)
		}
	}
}
