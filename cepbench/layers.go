package main

import (
	"fmt"
	"math"
	"strings"
)

// Layer names, as used in the per-layer metric names.
const (
	layerSource       = "asp.source"
	layerFilter       = "asp.filter"
	layerWindowJoin   = "asp.windowjoin"
	layerIntervalJoin = "asp.intervaljoin"
	layerUnion        = "asp.union"
	layerAggregate    = "asp.aggregate"
	layerNSeq         = "asp.nseq"
	layerNFA          = "nfa"
	layerSink         = "asp.sink"
)

// layerPrefixes maps the operator names core.Build assigns to layers;
// the NFA operator is named exactly "cep-nfa".
var layerPrefixes = []struct{ prefix, layer string }{
	{"src:", layerSource},
	{"σ:", layerFilter},
	{"⋈w#", layerWindowJoin},
	{"⋈i#", layerIntervalJoin},
	{"union#", layerUnion},
	{"∪all", layerUnion},
	{"∪nseq#", layerUnion},
	{"γcount#", layerAggregate},
	{"nextOcc#", layerNSeq},
	{"sink#", layerSink},
}

// layerOf maps a registry operator name to its layer. An unknown name is
// an error: a renamed operator must not silently drop out of its layer's
// totals.
func layerOf(node string) (string, error) {
	if node == "cep-nfa" {
		return layerNFA, nil
	}
	for _, p := range layerPrefixes {
		if strings.HasPrefix(node, p.prefix) {
			return p.layer, nil
		}
	}
	return "", fmt.Errorf("operator %q maps to no layer", node)
}

// layerTotals sums one trial's registry snapshot over a layer.
type layerTotals struct {
	in, out, procNs, blockedNs int64
	// procP99Ns is the largest per-instance p99 processing time.
	procP99Ns int64
}

// layerDefs are the metrics of traced runs (--trace 1).
var layerDefs = []def{
	{"sea.parse_ms", "ms"},
	{"core.translate_ms", "ms"},
	{"core.build_ms", "ms"},
	{"asp.source.out", "count"},
	{"asp.source.blocked_send_ms", "ms"},
	{"asp.source.lag_ms", "ms"},
	{"asp.filter.in", "count"},
	{"asp.filter.out", "count"},
	{"asp.filter.busy_ms", "ms"},
	{"asp.windowjoin.in", "count"},
	{"asp.windowjoin.out", "count"},
	{"asp.windowjoin.busy_ms", "ms"},
	{"asp.windowjoin.proc_p99_us", "us"},
	{"asp.windowjoin.blocked_send_ms", "ms"},
	{"asp.intervaljoin.in", "count"},
	{"asp.intervaljoin.out", "count"},
	{"asp.intervaljoin.busy_ms", "ms"},
	{"nfa.in", "count"},
	{"nfa.out", "count"},
	{"nfa.busy_ms", "ms"},
	{"nfa.partials_peak", "count"},
	{"asp.sink.in", "count"},
	{"asp.sink.busy_ms", "ms"},
	{"asp.sink.useful_ratio", "ratio"},
	{"asp.sink.latency_p50_us", "us"},
	{"asp.sink.latency_p99_us", "us"},
	{"asp.sink.latency_samples", "count"},
	{"asp.edge.batch_mean", "records"},
	{"asp.edge.blocked_send_ms", "ms"},
	{"asp.queue_wait_ms", "ms"},
	{"asp.proc_ms", "ms"},
	{"asp.state.peak_records", "count"},
	{"asp.late_records", "count"},
	{"checkpoint.count", "count"},
	{"checkpoint.duration_p99_ms", "ms"},
	{"checkpoint.align_pause_max_ms", "ms"},
	{"checkpoint.bytes_max", "bytes"},
	{"checkpoint.store_put_ms", "ms"},
	{"go.gc_cpu_pct", "%"},
	{"obs.overhead_pct", "%"},
}

func nsToMs(ns int64) float64 { return float64(ns) / 1e6 }

// traceValues computes one traced trial's per-layer figures. A layer the
// workload's plan does not contain reads 0.
func traceValues(t *trial) (map[string]float64, error) {
	if t.snap == nil {
		return nil, fmt.Errorf("traced trial has no registry snapshot")
	}
	layers := make(map[string]*layerTotals)
	totals := func(node string) (*layerTotals, error) {
		l, err := layerOf(node)
		if err != nil {
			return nil, err
		}
		if layers[l] == nil {
			layers[l] = &layerTotals{}
		}
		return layers[l], nil
	}
	var late, sent, batches, blockedNs int64
	for _, op := range t.snap.Operators {
		lt, err := totals(op.Node)
		if err != nil {
			return nil, err
		}
		lt.in += op.In
		lt.out += op.Out
		lt.procNs += op.ProcSum
		lt.procP99Ns = max(lt.procP99Ns, op.ProcP99)
		late += op.Late
	}
	for _, e := range t.snap.Edges {
		lt, err := totals(e.From)
		if err != nil {
			return nil, err
		}
		lt.blockedNs += e.BlockedNanos
		sent += e.Sent
		batches += e.Batches
		blockedNs += e.BlockedNanos
	}
	of := func(layer string) *layerTotals {
		if l := layers[layer]; l != nil {
			return l
		}
		return &layerTotals{}
	}
	src, flt, wj, ij, nfa, sink := of(layerSource), of(layerFilter), of(layerWindowJoin),
		of(layerIntervalJoin), of(layerNFA), of(layerSink)
	v := map[string]float64{
		"asp.source.out":                 float64(src.out),
		"asp.source.blocked_send_ms":     nsToMs(src.blockedNs),
		"asp.source.lag_ms":              nsToMs(t.lag.Nanoseconds()),
		"asp.filter.in":                  float64(flt.in),
		"asp.filter.out":                 float64(flt.out),
		"asp.filter.busy_ms":             nsToMs(flt.procNs),
		"asp.windowjoin.in":              float64(wj.in),
		"asp.windowjoin.out":             float64(wj.out),
		"asp.windowjoin.busy_ms":         nsToMs(wj.procNs),
		"asp.windowjoin.proc_p99_us":     float64(wj.procP99Ns) / 1e3,
		"asp.windowjoin.blocked_send_ms": nsToMs(wj.blockedNs),
		"asp.intervaljoin.in":            float64(ij.in),
		"asp.intervaljoin.out":           float64(ij.out),
		"asp.intervaljoin.busy_ms":       nsToMs(ij.procNs),
		"nfa.in":                         float64(nfa.in),
		"nfa.out":                        float64(nfa.out),
		"nfa.busy_ms":                    nsToMs(nfa.procNs),
		"nfa.partials_peak":              float64(t.partialsPeak),
		"asp.sink.in":                    float64(sink.in),
		"asp.sink.busy_ms":               nsToMs(sink.procNs),
		"asp.sink.useful_ratio":          0,
		"asp.sink.latency_p50_us":        micros(t.latP50),
		"asp.sink.latency_p99_us":        micros(t.latP99),
		"asp.sink.latency_samples":       float64(t.latN),
		"asp.edge.batch_mean":            0,
		"asp.edge.blocked_send_ms":       nsToMs(blockedNs),
		"asp.queue_wait_ms":              nsToMs(t.trace.QueueNs),
		"asp.proc_ms":                    nsToMs(t.trace.ProcNs),
		"asp.state.peak_records":         float64(t.statePeak),
		"asp.late_records":               float64(late),
		"checkpoint.count":               float64(len(t.ckpts)),
		"checkpoint.duration_p99_ms":     0,
		"checkpoint.align_pause_max_ms":  0,
		"checkpoint.bytes_max":           0,
		"checkpoint.store_put_ms":        0,
		"go.gc_cpu_pct":                  t.gcCPU / t.cpu.Seconds() * 100,
	}
	if sink.in > 0 {
		v["asp.sink.useful_ratio"] = float64(t.unique) / float64(sink.in)
	}
	if batches > 0 {
		v["asp.edge.batch_mean"] = float64(sent) / float64(batches)
	}
	if len(t.ckpts) > 0 {
		durs := make([]int64, len(t.ckpts))
		for i, c := range t.ckpts {
			durs[i] = c.Duration.Nanoseconds()
			v["checkpoint.align_pause_max_ms"] = math.Max(v["checkpoint.align_pause_max_ms"], nsToMs(c.AlignPause.Nanoseconds()))
			v["checkpoint.bytes_max"] = math.Max(v["checkpoint.bytes_max"], float64(c.Bytes))
		}
		v["checkpoint.duration_p99_ms"] = nsToMs(nearestRank(durs, 0.99))
	}
	if len(t.putNs) > 0 {
		var sum int64
		for _, ns := range t.putNs {
			sum += ns
		}
		v["checkpoint.store_put_ms"] = nsToMs(sum) / float64(len(t.putNs))
	}
	return v, nil
}
