package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"cep2asp/internal/core"
	"cep2asp/internal/event"
	"cep2asp/internal/workload"
)

// engineMode selects how a pattern is translated and run.
type engineMode struct {
	name string
	// fcep runs the unary NFA operator instead of the decomposed mapping.
	fcep bool
	opts core.Options
}

// filter calibrates one value threshold of a pattern to the input: the
// threshold passes exactly frac of the type's events. Thresholds fixed in
// advance would pass a count that varies by a few percent from seed to
// seed, and the join and match work grows with its square.
type filter struct {
	typ  event.Type
	frac float64
	// high passes the highest values (value >= threshold), otherwise the
	// lowest (value <= threshold).
	high bool
}

func (f filter) threshold(events []event.Event) float64 {
	vals := make([]float64, len(events))
	for i, e := range events {
		vals[i] = e.Value
	}
	sort.Float64s(vals)
	k := int(math.Max(1, math.Round(f.frac*float64(len(vals)))))
	if f.high {
		return vals[len(vals)-k]
	}
	return vals[k-1]
}

// spec is one benchmark workload: a pattern, the engine mode under test,
// the independent mode that computes its reference match set, and how
// the input is fed.
type spec struct {
	name string
	why  string
	// pattern is a PSL template with one %s per filter threshold.
	pattern string
	filters []filter
	mode    engineMode
	ref     engineMode
	// data generates the input streams from a seed.
	data func(seed int64) map[event.Type][]event.Event
	// openLoop throttles every source to sourceRate events/s, attaches the
	// obs registry and checkpoints every ckptInterval to a memory store.
	// Closed-loop workloads run to completion under backpressure.
	openLoop     bool
	sourceRate   float64
	ckptInterval time.Duration
}

// patternFor renders the workload's pattern with thresholds calibrated
// to data.
func (w spec) patternFor(data map[event.Type][]event.Event) string {
	args := make([]any, len(w.filters))
	for i, f := range w.filters {
		args[i] = strconv.FormatFloat(f.threshold(data[f.typ]), 'g', -1, 64)
	}
	return fmt.Sprintf(w.pattern, args...)
}

// seq7Pattern is the keyed three-stream sequence of the paper's
// data-characteristics experiment (§5.2.3), filter fraction 0.10.
const seq7Pattern = `
	PATTERN SEQ(QnVQuantity q, QnVVelocity v, PM10 p)
	WHERE q.id == v.id AND v.id == p.id
	  AND q.value >= %s AND v.value <= %s AND p.value <= %s
	WITHIN 15 MINUTES SLIDE 1 MINUTE`

func qnv(sensors, minutes int, seed int64) map[event.Type][]event.Event {
	q, v := workload.QnV(workload.QnVConfig{Sensors: sensors, Minutes: minutes, Seed: seed})
	return map[event.Type][]event.Event{workload.TypeQuantity: q, workload.TypeVelocity: v}
}

func seq7Data(seed int64) map[event.Type][]event.Event {
	data := qnv(128, 3000, seed)
	pm10, _, _, _ := workload.AirQuality(workload.AQConfig{Sensors: 128, Minutes: 3000, Seed: seed})
	data[workload.TypePM10] = pm10
	return data
}

// workloads lists the benchmark's workloads at the given operator
// parallelism.
func workloads(parallelism int) []spec {
	o3 := core.Options{UsePartitioning: true, Parallelism: parallelism}
	o1o3 := o3
	o1o3.UseIntervalJoin = true
	faspO1 := engineMode{name: "FASP-O1", opts: core.Options{UseIntervalJoin: true}}
	fcepO3 := engineMode{name: "FCEP+O3", fcep: true, opts: o3}
	q, v, p := workload.TypeQuantity, workload.TypeVelocity, workload.TypePM10
	seq7Filters := []filter{{q, 0.10, true}, {v, 0.10, false}, {p, 0.10, false}}
	return []spec{
		{
			name: "seq1_w360",
			why:  "closed loop, unkeyed SEQ1(2) with a 360-min sliding window: window-join pane re-joins and sink dedup of ~180 emissions per match do most of the work (Fig 3c worst case)",
			pattern: `
				PATTERN SEQ(QnVQuantity q, QnVVelocity v)
				WHERE q.value >= %s AND v.value <= %s
				WITHIN 360 MINUTES SLIDE 1 MINUTE`,
			filters: []filter{{q, 0.005, true}, {v, 0.005, false}},
			mode:    engineMode{name: "FASP"},
			ref:     faspO1,
			data:    func(seed int64) map[event.Type][]event.Event { return qnv(20, 3000, seed) },
		},
		{
			name:    "seq7_keyed",
			why:     "closed loop, keyed SEQ7(3) under FASP-O3 over 128 keys: many small keyed windows behind hash shuffles and two window-join stages",
			pattern: seq7Pattern,
			filters: seq7Filters,
			mode:    engineMode{name: "FASP-O3", opts: o3},
			ref:     fcepO3,
			data:    seq7Data,
		},
		{
			name: "iter3_fcep",
			why:  "closed loop, ITER3 with v[i] < v[i+1] under FCEP: the NFA step and its partial-match buffer do the work; bypasses every ASP join, shuffle and sink dedup",
			pattern: `
				PATTERN ITER(QnVVelocity v, 3)
				WHERE v[i].value < v[i+1].value AND v.value <= %s
				WITHIN 15 MINUTES SLIDE 1 MINUTE`,
			filters: []filter{{v, 0.02, false}},
			mode:    engineMode{name: "FCEP", fcep: true},
			ref:     faspO1,
			data: func(seed int64) map[event.Type][]event.Event {
				return map[event.Type][]event.Event{workload.TypeVelocity: qnv(20, 30000, seed)[workload.TypeVelocity]}
			},
		},
		{
			name:         "seq7_o1_open",
			why:          "open loop, seq7_keyed input as a deployed job: interval joins, sources paced at 100k events/s each, registry on, checkpoints every 200 ms; where latency means something",
			pattern:      seq7Pattern,
			filters:      seq7Filters,
			mode:         engineMode{name: "FASP-O1+O3", opts: o1o3},
			ref:          fcepO3,
			data:         seq7Data,
			openLoop:     true,
			sourceRate:   100_000,
			ckptInterval: 200 * time.Millisecond,
		},
	}
}

func lookup(name string, parallelism int) (spec, error) {
	var names []string
	for _, w := range workloads(parallelism) {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// inputSizes returns the per-type event counts, by type name, sorted.
func inputSizes(data map[event.Type][]event.Event) (sizes map[string]int, total int) {
	sizes = make(map[string]int, len(data))
	for t, evs := range data {
		sizes[event.TypeName(t)] = len(evs)
		total += len(evs)
	}
	return sizes, total
}
