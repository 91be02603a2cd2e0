// Command cepbench is the repository benchmark. It generates one
// workload's input from a seed, computes the reference unique-match set
// with an independent engine mode, then times repeated runs of the mode
// under test from outside the engine — through sea.Parse, core.Translate,
// core.Build, (*asp.Environment).Execute and the asp.Results accessors —
// checking every run's matches against the reference.
//
//	cepbench --workload seq7_keyed --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object: correctness, the
// operations attempted and failed, and the end-to-end metrics (--trace 0)
// or the per-layer metrics of traced runs (--trace 1).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"time"
)

const (
	// setupsPerTrial is how many extra set-ups a run times before each
	// trial, on top of the one every trial pays: one takes tens of
	// microseconds, so only a median over many is steady.
	setupsPerTrial = 40
	// minTrials is the fewest trials of each kind a run measures, however
	// short --seconds is.
	minTrials = 3
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload   string
	seed       int64
	seconds    float64
	trace      int
	cpuProfile string
	memProfile string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run (seq1_w360, seq7_keyed, iter3_fcep, seq7_o1_open)")
	flag.Int64Var(&o.seed, "seed", 1, "input generator seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "how long to measure")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from traced runs")
	flag.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the measured runs to this file")
	flag.StringVar(&o.memProfile, "memprofile", "", "write a heap profile after the measured runs to this file")
	flag.Parse()
	if err := run(context.Background(), o); err != nil {
		fmt.Fprintln(os.Stderr, "cepbench:", err)
		os.Exit(1)
	}
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func run(ctx context.Context, o options) error {
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", o.trace)
	}
	if o.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %g", o.seconds)
	}
	parallelism := runtime.NumCPU()
	w, err := lookup(o.workload, parallelism)
	if err != nil {
		return err
	}
	data := w.data(o.seed)
	sizes, _ := inputSizes(data)
	r := newRunner(w, data, parallelism)

	refStart := time.Now()
	ref, err := r.reference(ctx)
	if err != nil {
		return err
	}
	header := map[string]any{
		"machine": map[string]any{
			"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
			"go": runtime.Version(), "commit": commit(),
		},
		"workload": w.name, "seed": o.seed, "mode": w.mode.name, "parallelism": parallelism,
		"inputs": sizes, "input_events": r.events, "pattern": strings.Join(strings.Fields(r.pattern), " "),
		"reference": map[string]any{"mode": w.ref.name, "unique": len(ref), "digest": digest(ref),
			"seconds": time.Since(refStart).Seconds()},
	}
	if err := printJSON(header); err != nil {
		return err
	}

	var setups []setupTimes
	res := result{Correct: true, Metrics: map[string]metric{}}
	score := func(t *trial) {
		a, f := account(ref, runOutcome{err: t.err, behind: t.lag > maxSourceLag, keys: t.keys})
		t.keys = nil
		res.Attempted += a
		res.Failed += f
		if f > 0 {
			res.Correct = false
		}
		// Only a trial that lost most of its matches has too few latency
		// samples for p99; failure accounting already counts it as failed.
		if p := highestPercentile(t.latN); p < 99 {
			fmt.Fprintf(os.Stderr, "latency p99 needs %d samples beyond it; %d samples support only p%g\n", minTail, t.latN, p)
		}
		fmt.Fprintf(os.Stderr, "trial traced=%v wall=%v eps=%.0f cpu_us=%.3f alloc_b=%.0f heap_mb=%.2f unique=%d sink_in=%d lat_n=%d lat_p50=%v lat_p99=%v lag=%v failed=%d err=%v\n",
			t.traced, t.wall.Round(time.Millisecond), t.throughput(), cpuPerEvent(t), float64(t.allocBytes)/float64(t.events),
			float64(t.peakHeap)/(1<<20), t.unique, t.sinkIn, t.latN, t.latP50, t.latP99, t.lag.Round(time.Millisecond), f, t.err)
	}

	var cpuProfile *os.File
	if o.cpuProfile != "" {
		if cpuProfile, err = os.Create(o.cpuProfile); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		defer cpuProfile.Close() // error paths only; checked below
		if err := pprof.StartCPUProfile(cpuProfile); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
	}
	// A trace-1 run alternates untraced and traced trials.
	var plain, traced []*trial
	start := time.Now()
	for i := 0; len(plain) < minTrials || (o.trace == 1 && len(traced) < minTrials) ||
		time.Since(start).Seconds() < o.seconds; i++ {
		// Set-ups are timed between trials, after the last trial's
		// garbage is collected, so that background GC work does not
		// land in them.
		runtime.GC()
		for j := 0; j < setupsPerTrial; j++ {
			st, err := r.setupOnly()
			if err != nil {
				return err
			}
			setups = append(setups, st)
		}
		t, err := r.run(ctx, o.trace == 1 && i%2 == 1)
		if err != nil {
			return err
		}
		score(t)
		setups = append(setups, t.setup)
		if t.traced {
			traced = append(traced, t)
		} else {
			plain = append(plain, t)
		}
	}
	if cpuProfile != nil {
		pprof.StopCPUProfile()
		if err := cpuProfile.Close(); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
	}
	if o.memProfile != "" {
		if err := writeHeapProfile(o.memProfile); err != nil {
			return err
		}
	}

	if o.trace == 0 {
		err = endToEnd(res.Metrics, plain, setups)
	} else {
		err = layerMetrics(res.Metrics, plain, traced, setups)
	}
	if err != nil {
		return err
	}
	return printJSON(res)
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("heap profile: %w", err)
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("heap profile: %w", err)
	}
	return f.Close()
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

// def names a metric and its unit.
type def struct{ name, unit string }

// endToEndDefs are the metrics of untraced runs (--trace 0).
var endToEndDefs = []def{
	{"throughput_eps", "events/s"},
	{"cpu_us_per_event", "us"},
	{"alloc_bytes_per_event", "bytes"},
	{"peak_heap_mb", "MB"},
	{"setup_s", "s"},
}

// fill copies values into m under defs' names and units; every def must
// have a value.
func fill(m map[string]metric, defs []def, values map[string]float64) error {
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		m[d.name] = metric{v, d.unit}
	}
	return nil
}

// medianOf is the median of f over trials.
func medianOf(ts []*trial, f func(*trial) float64) float64 {
	xs := make([]float64, len(ts))
	for i, t := range ts {
		xs[i] = f(t)
	}
	return median(xs)
}

func setupMedian(setups []setupTimes, f func(setupTimes) time.Duration) float64 {
	xs := make([]float64, len(setups))
	for i, s := range setups {
		xs[i] = f(s).Seconds()
	}
	return median(xs)
}

func cpuPerEvent(t *trial) float64 { return float64(t.cpu.Nanoseconds()) / 1e3 / float64(t.events) }

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// endToEnd fills the end-to-end metrics from untraced trials: the median
// of each trial's figure, and the median of every set-up timed.
func endToEnd(m map[string]metric, ts []*trial, setups []setupTimes) error {
	return fill(m, endToEndDefs, map[string]float64{
		"throughput_eps":        medianOf(ts, (*trial).throughput),
		"cpu_us_per_event":      medianOf(ts, cpuPerEvent),
		"alloc_bytes_per_event": medianOf(ts, func(t *trial) float64 { return float64(t.allocBytes) / float64(t.events) }),
		"peak_heap_mb":          medianOf(ts, func(t *trial) float64 { return float64(t.peakHeap) / (1 << 20) }),
		"setup_s":               setupMedian(setups, setupTimes.total),
	})
}

// layerMetrics fills the per-layer metrics: the median over traced
// trials of each trial's figure, the set-up steps' medians, and the
// tracing overhead against the untraced trials of the same run.
func layerMetrics(m map[string]metric, plain, traced []*trial, setups []setupTimes) error {
	values := map[string]float64{
		"sea.parse_ms":      setupMedian(setups, func(s setupTimes) time.Duration { return s.parse }) * 1e3,
		"core.translate_ms": setupMedian(setups, func(s setupTimes) time.Duration { return s.translate }) * 1e3,
		"core.build_ms":     setupMedian(setups, func(s setupTimes) time.Duration { return s.build }) * 1e3,
		"obs.overhead_pct":  (medianOf(traced, cpuPerEvent)/medianOf(plain, cpuPerEvent) - 1) * 100,
	}
	per := make([]map[string]float64, len(traced))
	for i, t := range traced {
		v, err := traceValues(t)
		if err != nil {
			return err
		}
		per[i] = v
	}
	for name := range per[0] {
		xs := make([]float64, len(per))
		for i, v := range per {
			xs[i] = v[name]
		}
		values[name] = median(xs)
	}
	if len(values) != len(layerDefs) {
		return fmt.Errorf("measured %d per-layer metrics, defined %d", len(values), len(layerDefs))
	}
	return fill(m, layerDefs, values)
}
