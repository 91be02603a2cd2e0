package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"cep2asp/internal/asp"
	"cep2asp/internal/checkpoint"
	"cep2asp/internal/core"
	"cep2asp/internal/event"
	"cep2asp/internal/obs"
	"cep2asp/internal/sea"
	"cep2asp/internal/trace"
)

const (
	// watermarkInterval matches the experiment harness's engine setting.
	watermarkInterval = 256
	// traceRate samples one source event in a thousand in traced runs:
	// enough spans for a queue/processing split, little enough to leave
	// the run's cost close to the untraced one.
	traceRate = 0.001
	// pollEvery is the period of the in-run sampler (live heap, state
	// size, source lag, NFA partials). runtime/metrics reads do not stop
	// the world.
	pollEvery = 5 * time.Millisecond
	// execTimeout bounds one Execute; a run that hits it fails all its
	// operations.
	execTimeout = 60 * time.Second
	// maxSourceLag is how far behind schedule an open-loop source may run
	// before the run counts as failed: past it, latency no longer measures
	// detection but a growing backlog.
	maxSourceLag = 250 * time.Millisecond
)

// setupTimes splits the set-up a user pays before the first event flows.
type setupTimes struct{ parse, translate, build time.Duration }

func (s setupTimes) total() time.Duration { return s.parse + s.translate + s.build }

// trial is one timed Execute of a workload, with everything measured
// around it from outside the engine.
type trial struct {
	// traced trials attach the obs registry and a sampling tracer; they
	// give the per-layer figures, untraced ones the end-to-end figures.
	traced bool
	setup  setupTimes
	events int

	wall time.Duration
	// cpu is process user+sys time during Execute.
	cpu time.Duration
	// allocBytes is heap allocated during Execute; peakHeap the peak live
	// heap during Execute above the live heap before it.
	allocBytes uint64
	peakHeap   int64
	// gcCPU is the runtime's estimate of GC CPU seconds during Execute.
	gcCPU float64

	err error
	// keys is the sorted unique-match identity set the sink kept; it is
	// dropped once scored, so that kept trials do not grow the live heap
	// later trials start from. unique is its size.
	keys   []string
	unique int
	// sinkIn counts records reaching the sink, duplicates included.
	sinkIn int64
	// latP50/latP99 are detection latencies from the sink histogram;
	// latN its sample count.
	latP50, latP99 time.Duration
	latN           int64
	// lag is the worst distance behind schedule any throttled source ran.
	lag time.Duration

	// Per-layer observations (registry attached).
	snap         *obs.Snapshot
	trace        trace.Summary
	ckpts        []checkpoint.Stat
	putNs        []int64
	statePeak    int64
	partialsPeak int64
}

func (t *trial) throughput() float64 { return float64(t.events) / t.wall.Seconds() }

// timedStore wraps a checkpoint store to time every Save.
type timedStore struct {
	checkpoint.Store
	mu sync.Mutex
	ns []int64
}

func (s *timedStore) Save(snap *checkpoint.Snapshot) error {
	start := time.Now()
	err := s.Store.Save(snap)
	d := time.Since(start).Nanoseconds()
	s.mu.Lock()
	s.ns = append(s.ns, d)
	s.mu.Unlock()
	return err
}

func (s *timedStore) durations() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int64(nil), s.ns...)
}

// runner holds a workload's generated input and executes trials of it.
type runner struct {
	w           spec
	data        map[event.Type][]event.Event
	events      int
	parallelism int
	// pattern is the workload's pattern calibrated to data.
	pattern string
}

func newRunner(w spec, data map[event.Type][]event.Event, parallelism int) *runner {
	_, total := inputSizes(data)
	return &runner{w: w, data: data, events: total, parallelism: parallelism, pattern: w.patternFor(data)}
}

// buildEnv parses, translates and builds the workload's dataflow in the
// given mode, timing each step.
func (r *runner) buildEnv(mode engineMode, cfg asp.Config, throttle bool) (*asp.Environment, *asp.Results, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	pat, err := sea.Parse(r.pattern)
	st.parse = time.Since(t0)
	if err != nil {
		return nil, nil, st, fmt.Errorf("parse: %w", err)
	}
	t1 := time.Now()
	var plan *core.Plan
	if mode.fcep {
		plan, err = core.TranslateFCEP(pat, mode.opts)
	} else {
		plan, err = core.Translate(pat, mode.opts)
	}
	st.translate = time.Since(t1)
	if err != nil {
		return nil, nil, st, fmt.Errorf("translate %s: %w", mode.name, err)
	}
	bc := core.BuildConfig{
		Engine:      cfg,
		Data:        r.data,
		StampIngest: true,
		DedupSink:   true,
		KeepMatches: true,
	}
	if throttle {
		bc.SourceRatePerSec = r.w.sourceRate
	}
	t2 := time.Now()
	env, sink, err := core.Build(plan, bc)
	st.build = time.Since(t2)
	if err != nil {
		return nil, nil, st, fmt.Errorf("build %s: %w", mode.name, err)
	}
	return env, sink, st, nil
}

func (r *runner) engineConfig() asp.Config {
	return asp.Config{DefaultParallelism: r.parallelism, WatermarkInterval: watermarkInterval}
}

// reference computes the workload's unique-match set with its independent
// reference mode, unthrottled and uninstrumented.
func (r *runner) reference(ctx context.Context) ([]string, error) {
	env, sink, _, err := r.buildEnv(r.w.ref, r.engineConfig(), false)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, execTimeout)
	defer cancel()
	if err := env.Execute(ctx); err != nil {
		return nil, fmt.Errorf("reference %s: %w", r.w.ref.name, err)
	}
	keys := sink.Keys()
	sort.Strings(keys)
	return keys, nil
}

// setupOnly times one parse+translate+build of the mode under test, as
// an untraced trial builds it.
func (r *runner) setupOnly() (setupTimes, error) {
	cfg, _, _, _ := r.trialConfig(false)
	_, _, st, err := r.buildEnv(r.w.mode, cfg, r.w.openLoop)
	return st, err
}

// trialConfig returns the engine configuration of a trial and the
// instruments attached to it. The open-loop workload always runs with its
// registry and checkpoints, since they are part of the deployed job it
// models.
func (r *runner) trialConfig(traced bool) (asp.Config, *obs.Registry, *trace.Tracer, *timedStore) {
	cfg := r.engineConfig()
	var reg *obs.Registry
	if traced || r.w.openLoop {
		reg = obs.NewRegistry()
		cfg.Metrics = reg
	}
	var tracer *trace.Tracer
	if traced {
		tracer = trace.New(traceRate, 0)
		cfg.Trace = tracer
	}
	var store *timedStore
	if r.w.ckptInterval > 0 {
		store = &timedStore{Store: checkpoint.NewMemStore()}
		cfg.Checkpoint = &asp.CheckpointSpec{Store: store, Interval: r.w.ckptInterval}
	}
	return cfg, reg, tracer, store
}

// runtime/metrics sample indices.
const (
	mHeapLive = iota
	mAllocs
	mGCCPU
)

func newSamples() []metrics.Sample {
	return []metrics.Sample{
		{Name: "/gc/heap/live:bytes"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// run executes one trial.
func (r *runner) run(ctx context.Context, traced bool) (*trial, error) {
	cfg, reg, tracer, store := r.trialConfig(traced)
	env, sink, st, err := r.buildEnv(r.w.mode, cfg, r.w.openLoop)
	if err != nil {
		return nil, err
	}
	t := &trial{traced: traced, setup: st, events: r.events}

	// Sources by node name, for the schedule-lag poll.
	var sources []*asp.NodeMetrics
	sizes := map[string]int{}
	for typ, evs := range r.data {
		sizes["src:"+event.TypeName(typ)] = len(evs)
	}
	for _, n := range env.NodeStats() {
		if strings.HasPrefix(n.Name, "src:") {
			sources = append(sources, n)
		}
	}

	runtime.GC()
	before := newSamples()
	metrics.Read(before)
	baseHeap := int64(before[mHeapLive].Value.Uint64())
	cpu0 := cpuTime()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	start := time.Now()
	go func() {
		defer wg.Done()
		r.poll(t, env, reg, sources, sizes, baseHeap, start, stop)
	}()

	ectx, cancel := context.WithTimeout(ctx, execTimeout)
	t.err = env.Execute(ectx)
	t.wall = time.Since(start)
	cancel()
	t.cpu = cpuTime() - cpu0
	after := newSamples()
	metrics.Read(after)
	close(stop)
	wg.Wait()

	t.allocBytes = after[mAllocs].Value.Uint64() - before[mAllocs].Value.Uint64()
	t.gcCPU = after[mGCCPU].Value.Float64() - before[mGCCPU].Value.Float64()
	// Live heap is known only after a GC. A run over a large input
	// collects only a few times per Execute, and the open loop's state
	// and checkpoint store grow until its end, so one more sample is taken
	// now, while the environment, sink and store are still referenced.
	runtime.GC()
	metrics.Read(after[:1])
	if h := int64(after[mHeapLive].Value.Uint64()) - baseHeap; h > t.peakHeap {
		t.peakHeap = h
	}

	t.keys = sink.Keys()
	sort.Strings(t.keys)
	t.unique = len(t.keys)
	t.sinkIn = sink.Total()
	hist := sink.LatencyHistogram()
	t.latN = hist.Count()
	t.latP50 = time.Duration(hist.Quantile(0.50))
	t.latP99 = time.Duration(hist.Quantile(0.99))
	if reg != nil {
		snap := reg.Snapshot()
		t.snap = &snap
	}
	if tracer != nil {
		t.trace = tracer.Summarize()
	}
	if store != nil {
		t.ckpts = env.CheckpointStats()
		t.putNs = store.durations()
	}
	if s := env.StateSize(); s > t.statePeak {
		t.statePeak = s
	}
	return t, nil
}

// poll samples the running dataflow until stop closes: peak live heap,
// peak operator state, how far throttled sources trail their schedule,
// and (traced runs) the NFA's partial-match gauge.
func (r *runner) poll(t *trial, env *asp.Environment, reg *obs.Registry, sources []*asp.NodeMetrics,
	sizes map[string]int, baseHeap int64, start time.Time, stop <-chan struct{}) {
	samples := newSamples()[:1]
	tick := time.NewTicker(pollEvery)
	defer tick.Stop()
	for n := 0; ; n++ {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		metrics.Read(samples)
		if h := int64(samples[0].Value.Uint64()) - baseHeap; h > t.peakHeap {
			t.peakHeap = h
		}
		if s := env.StateSize(); s > t.statePeak {
			t.statePeak = s
		}
		if r.w.openLoop {
			elapsed := time.Since(start).Seconds()
			for _, src := range sources {
				due := r.w.sourceRate * elapsed
				if limit := float64(sizes[src.Name]); due > limit {
					due = limit
				}
				behind := due - float64(src.Out.Load())
				if lag := time.Duration(behind / r.w.sourceRate * float64(time.Second)); lag > t.lag {
					t.lag = lag
				}
			}
		}
		// The registry snapshot computes every histogram's quantiles, so
		// the traced run reads it at a quarter of the poll rate.
		if t.traced && n%4 == 0 {
			var partials int64
			for _, op := range reg.Snapshot().Operators {
				if l, _ := layerOf(op.Node); l == layerNFA {
					partials += op.Partials
				}
			}
			if partials > t.partialsPeak {
				t.partialsPeak = partials
			}
		}
	}
}
