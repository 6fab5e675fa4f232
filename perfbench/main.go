// Command perfbench is the repository benchmark: it drives one named
// workload through the ShadowTutor client/server over loopback TCP, checks
// the outputs, and prints every metric by name with its unit. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": 1280, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones, and the key-frame spans are written to a file. See
// README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/tensor"
	"repro/internal/video"
)

// setupRepeats is how many times an untraced run builds the system; the
// reported setup_s is the median.
const setupRepeats = 3

// hostStamp identifies the machine and build a result came from.
type hostStamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Backend    string `json:"backend"`
	VecISA     string `json:"vec_isa"`
	GoVersion  string `json:"go_version"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload name: solo-maxfps or narrowband-8mbps")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 40, "nominal measured seconds; sets the frame budget")
	trace := flag.Int("trace", 0, "1: traced run printing per-layer metrics and writing spans")
	spansDir := flag.String("spans-dir", ".", "directory for the span file of a traced run")
	flag.Parse()
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	if *seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	if *trace != 0 && *trace != 1 {
		return errors.New("--trace must be 0 or 1")
	}
	host := hostStamp{
		Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Backend: tensor.DefaultBackend().Name(), VecISA: tensor.VecKernelISA(),
		GoVersion: runtime.Version(),
	}
	n := int(math.Ceil(float64(*seconds) * w.rate))
	frames, arena, err := genFrames(*seed, n)
	if err != nil {
		return err
	}
	defer arena.close()

	var res result
	if *trace == 1 {
		path := filepath.Join(*spansDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, *seed))
		res, err = traced(w, *seed, frames, host, path)
	} else {
		res, err = untraced(w, *seed, frames, int64(arena.bytes()))
	}
	if err != nil {
		return err
	}
	stamp, err := json.Marshal(map[string]hostStamp{"host": host})
	if err != nil {
		return err
	}
	fmt.Println(string(stamp))
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Printf("%-28s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// untraced builds the system setupRepeats times — each of the first ones
// serves a single frame — and measures the last one.
func untraced(w workload, seed int64, frames []video.Frame, frameBytes int64) (result, error) {
	var setups []time.Duration
	for i := 1; i < setupRepeats; i++ {
		r, err := runSystem(w, seed, frames[:1], false)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, r.setup)
	}
	r, err := runSystem(w, seed, frames, false)
	if err != nil {
		return result{}, err
	}
	setups = append(setups, r.setup)
	return newResult(check(r), endToEnd(r, setups, frameBytes)), nil
}

// newResult builds the output line. A metric that came out NaN or infinite
// fails the run like a failed output check; every failure is printed to
// standard error.
func newResult(v *verdict, m metricSet) result {
	for _, name := range m.invalid() {
		v.fail("metric %s is not a finite number", name)
	}
	for _, p := range v.problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	return result{Correct: v.ok(), Attempted: v.attempted, Failed: v.failed(), Metrics: m}
}

// traced measures the workload on a fresh traced system, probes the
// layers, reports the per-layer metrics and writes the spans.
func traced(w workload, seed int64, frames []video.Frame, host hostStamp, spanPath string) (result, error) {
	r, err := runSystem(w, seed, frames, true)
	if err != nil {
		return result{}, err
	}
	v := check(r)
	m, err := perLayer(w, seed, frames, r)
	if err != nil {
		return result{}, err
	}
	spans := buildSpans(r)
	sum := summarise(spans)
	for _, s := range sum {
		fmt.Fprintf(os.Stderr, "span %-17s n=%-5d p50 %8.3f ms  self p50 %8.3f ms\n", s.Name, s.Count, s.P50MS, s.SelfP50MS)
	}
	if err := os.MkdirAll(filepath.Dir(spanPath), 0o755); err != nil {
		return result{}, err
	}
	if err := writeSpans(spanPath, host, sum, spans); err != nil {
		return result{}, fmt.Errorf("span file: %w", err)
	}
	fmt.Fprintln(os.Stderr, "spans written to", spanPath)
	return newResult(v, m), nil
}

// perLayer computes the per-layer metrics of a traced run r.
func perLayer(w workload, seed int64, frames []video.Frame, r *runResult) (metricSet, error) {
	m := metricSet{}
	cfg := core.DefaultConfig()
	cr := r.client
	res := cr.result()

	// Client: key frames, frame busy time, eval cost, handshake.
	busy := make([]float64, len(cr.src.busy))
	for i, b := range cr.src.busy {
		busy[i] = ms(b)
	}
	m.set("client.key_frame_rate", float64(res.KeyFrames)/float64(res.Frames), "ratio")
	m.set("client.frame_busy_ms_p50", quantile(busy, 0.5), "ms")
	m.set("client.eval_ms_per_call", ms(cr.eval.busy)/float64(cr.eval.calls), "ms")
	m.set("client.handshake_ms", ms(cr.src.entry-cr.dialAt), "ms")

	// Server, teacher and link, joined per key frame.
	var upT, downT, service, wait, batchDur []float64
	var upBytes, downBytes int
	for _, kf := range cr.log.kfs {
		upBytes += kf.bytes
	}
	for _, d := range cr.log.diffs {
		downBytes += d.bytes
	}
	if sl := serverLog(r); sl != nil {
		batchOf := batches(r)
		for n, kf := range sl.kfs {
			if n < len(cr.log.kfs) {
				upT = append(upT, ms(kf.ret-cr.log.kfs[n].call))
			}
			if n < len(sl.diffs) {
				service = append(service, ms(sl.diffs[n].call-kf.ret))
			}
			if b, found := batchOf[int(kf.frame)]; found {
				wait = append(wait, ms(b.start-kf.ret))
				batchDur = append(batchDur, ms(b.end-b.start))
			}
		}
		for n, d := range sl.diffs {
			if n < len(cr.log.diffs) {
				downT = append(downT, ms(cr.log.diffs[n].ret-d.call))
			}
		}
	}
	st := r.stats
	distillBusy := ms(int64(st.DistillTime)) / float64(st.KeyFrames)
	m.set("uplink.transit_ms_p50", quantile(upT, 0.5), "ms")
	m.set("downlink.transit_ms_p50", quantile(downT, 0.5), "ms")
	m.set("uplink.bytes_per_kf", float64(upBytes)/float64(len(cr.log.kfs)), "B")
	m.set("downlink.bytes_per_diff", float64(downBytes)/float64(len(cr.log.diffs)), "B")
	m.set("server.kf_service_ms_p50", quantile(service, 0.5), "ms")
	m.set("server.kf_service_ms_p90", quantile(service, 0.9), "ms")
	m.set("server.unattributed_ms_per_kf", mean(service)-mean(wait)-mean(batchDur)-distillBusy, "ms")
	m.set("teacher.calls", float64(r.tutor.calls), "count")
	m.set("teacher.mean_batch", float64(r.tutor.frames)/float64(r.tutor.calls), "frames")
	m.set("teacher.busy_ms_per_frame", ms(r.tutor.busy)/float64(r.tutor.frames), "ms")
	m.set("teacher.queue_wait_ms_p50", quantile(wait, 0.5), "ms")
	m.set("teacher.queue_wait_ms_p90", quantile(wait, 0.9), "ms")
	m.set("distill.steps_per_kf", st.MeanDistillSteps(), "count")
	m.set("distill.step_ms", ms(int64(st.MeanStepLatency())), "ms")
	m.set("distill.busy_ms_per_kf", distillBusy, "ms")
	m.set("serve.checkpoint_bytes", float64(st.CheckpointBytes), "B")

	// Probes on the workload's own frames and the student the run trained.
	student := r.base
	if cr.cl != nil {
		student = cr.cl.Student
	}
	sample := probeSample(frames, 64)
	tsi := studentInfer(student, sample)
	m.set("nn.student_infer_ms", ms(int64(tsi)), "ms")
	gm, gn, gk := largestConvGEMM(student, video.DefaultH, video.DefaultW)
	m.set("tensor.gemm_gflops", gemmGFLOPS(gm, gn, gk), "GFLOP/s")
	tsd := distillStep(cfg, r.base, frames, seed)
	tti := teacherInfer(sample, seed)
	cc, err := probeCodecs(w, student, probeSample(frames, 16))
	if err != nil {
		return nil, fmt.Errorf("codec probe: %w", err)
	}
	m.set("keyframe.encode_ms", ms(int64(cc.kfEncode)), "ms")
	m.set("keyframe.decode_ms", ms(int64(cc.kfDecode)), "ms")
	m.set("diff.encode_ms", ms(int64(cc.diffEncode)), "ms")
	m.set("diff.decode_ms", ms(int64(cc.diffDecode)), "ms")
	m.set("distill.miou_gain_pp", 100*(res.MeanIoU-frozenMIoU(r.base, frames, seed)), "pp")

	// The §4.4 model, fed the measured Table 1 terms, beside the measured
	// frame rate it should bracket. Whether it does is printed, not
	// reported: a metric must never be 0.
	tnet := time.Duration((quantile(upT, 0.5) + quantile(downT, 0.5)) * 1e6)
	lo, hi, err := throughputBounds(cfg, tsi, tsd, tti, tnet, cc.kfBytes+cc.diffBytes)
	if err != nil {
		return nil, err
	}
	measured := fps(r)
	m.set("bounds.fps_lo", lo, "1/s")
	m.set("bounds.fps_hi", hi, "1/s")
	m.set("bounds.fps_measured", measured, "1/s")
	fmt.Fprintf(os.Stderr, "bounds: measured %.2f fps, model [%.2f, %.2f], in range: %v\n", measured, lo, hi, measured >= lo && measured <= hi)

	// Tracing overhead: the share of the measured period spent in the
	// bookkeeping only a traced run does.
	m.set("trace.overhead_pct", 100*float64(r.cost.ns.Load())/float64(r.end-r.start), "%")
	return m, nil
}

func sortedKeys(m metricSet) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
