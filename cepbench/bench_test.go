package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"sort"
	"testing"

	"cep2asp/internal/event"
	"cep2asp/internal/sea"
	"cep2asp/internal/workload"
)

// smallData shrinks each workload's input so the formal semantics can
// evaluate it; the pattern and its filter fractions are unchanged.
func smallData(t *testing.T, name string, seed int64) map[event.Type][]event.Event {
	switch name {
	case "seq1_w360":
		return qnv(4, 1000, seed)
	case "seq7_keyed", "seq7_o1_open":
		data := qnv(8, 300, seed)
		pm10, _, _, _ := workload.AirQuality(workload.AQConfig{Sensors: 8, Minutes: 300, Seed: seed})
		data[workload.TypePM10] = pm10
		return data
	case "iter3_fcep":
		return map[event.Type][]event.Event{workload.TypeVelocity: qnv(20, 300, seed)[workload.TypeVelocity]}
	}
	t.Fatalf("no small input for workload %s", name)
	return nil
}

// semanticsKeys evaluates the runner's pattern with the formal semantics.
// Events failing their type's threshold filter are dropped first: they
// cannot take part in a SEQ or ITER match, and windows are defined by
// time, so the match set is unchanged while sea.Evaluate, which
// enumerates every window, becomes fast enough.
func semanticsKeys(t *testing.T, r *runner) []string {
	pat, err := sea.Parse(r.pattern)
	if err != nil {
		t.Fatal(err)
	}
	var relevant []event.Event
	for _, f := range r.w.filters {
		th := f.threshold(r.data[f.typ])
		for _, e := range r.data[f.typ] {
			if (f.high && e.Value >= th) || (!f.high && e.Value <= th) {
				relevant = append(relevant, e)
			}
		}
	}
	var keys []string
	for _, m := range sea.Evaluate(pat, relevant) {
		keys = append(keys, m.Key())
	}
	sort.Strings(keys)
	return keys
}

// Each workload's reference mode, and the mode under test, must produce
// exactly the formal semantics' unique matches.
func TestEnginesAgreeWithSemantics(t *testing.T) {
	for _, w := range workloads(2) {
		for seed := int64(1); seed <= 2; seed++ {
			r := newRunner(w, smallData(t, w.name, seed), 2)
			want := semanticsKeys(t, r)
			if len(want) == 0 {
				t.Fatalf("%s seed %d: small input yields no matches; the check would be vacuous", w.name, seed)
			}
			t.Logf("%s seed %d: %d events, %d matches", w.name, seed, r.events, len(want))
			ref, err := r.reference(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if missing, spurious := diffSorted(want, ref); missing+spurious != 0 {
				t.Errorf("%s seed %d: reference %s has %d missing, %d spurious of %d matches",
					w.name, seed, w.ref.name, missing, spurious, len(want))
			}
			tr, err := r.run(context.Background(), false)
			if err != nil {
				t.Fatal(err)
			}
			if a, f := account(want, runOutcome{err: tr.err, behind: tr.lag > maxSourceLag, keys: tr.keys}); f != 0 {
				t.Errorf("%s seed %d: %s failed %d of %d operations (err %v)", w.name, seed, w.mode.name, f, a, tr.err)
			}
		}
	}
}

func TestHighestPercentile(t *testing.T) {
	cases := []struct {
		n    int64
		want float64
	}{
		{0, 0},
		{19, 0},
		{20, 50},
		{99, 50},
		{100, 90},
		{999, 90},
		{1000, 99},
		{8600, 99},
		{9999, 99},
		{10000, 99.9},
		{100000, 99.99},
	}
	for _, c := range cases {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestAccount(t *testing.T) {
	ref := []string{"a", "b", "c", "d"}
	cases := []struct {
		name string
		o    runOutcome
		want int
	}{
		{"exact", runOutcome{keys: []string{"a", "b", "c", "d"}}, 0},
		{"missing", runOutcome{keys: []string{"a", "d"}}, 2},
		{"spurious", runOutcome{keys: []string{"a", "b", "bb", "c", "d", "e"}}, 2},
		{"missing and spurious", runOutcome{keys: []string{"0", "b", "c"}}, 3},
		{"errored", runOutcome{err: errors.New("boom"), keys: ref}, 4},
		{"fell behind", runOutcome{behind: true, keys: ref}, 4},
	}
	for _, c := range cases {
		attempted, failed := account(ref, c.o)
		if attempted != len(ref) || failed != c.want {
			t.Errorf("%s: account = (%d, %d), want (%d, %d)", c.name, attempted, failed, len(ref), c.want)
		}
	}
}

func TestLayerOf(t *testing.T) {
	known := map[string]string{
		"src:QnVQuantity": layerSource,
		"σ:q#1":           layerFilter,
		"⋈w#3":            layerWindowJoin,
		"⋈i#3":            layerIntervalJoin,
		"cep-nfa":         layerNFA,
		"sink#0":          layerSink,
		"∪all":            layerUnion,
		"union#2":         layerUnion,
		"γcount#4":        layerAggregate,
		"∪nseq#5":         layerUnion,
		"nextOcc#6":       layerNSeq,
	}
	for node, want := range known {
		if got, err := layerOf(node); err != nil || got != want {
			t.Errorf("layerOf(%q) = %q, %v; want %q", node, got, err, want)
		}
	}
	for _, node := range []string{"", "map#1", "⋈x#2", "cep-nfa2", "src"} {
		if l, err := layerOf(node); err == nil {
			t.Errorf("layerOf(%q) = %q, want an error", node, l)
		}
	}
	// Every operator of every workload, in both its modes, has a layer.
	for _, w := range workloads(2) {
		r := newRunner(w, smallData(t, w.name, 1), 2)
		for _, mode := range []engineMode{w.mode, w.ref} {
			env, _, _, err := r.buildEnv(mode, r.engineConfig(), false)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range env.NodeStats() {
				if _, err := layerOf(n.Name); err != nil {
					t.Errorf("%s %s: %v", w.name, mode.name, err)
				}
			}
		}
	}
}

// BENCHMARK.json at the repository root must list exactly the workloads
// and metrics this program measures.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var gotW, wantW [][2]string
	for _, w := range b.Workloads {
		gotW = append(gotW, [2]string{w.Name, w.Why})
	}
	for _, w := range workloads(2) {
		wantW = append(wantW, [2]string{w.name, w.why})
	}
	if !reflect.DeepEqual(gotW, wantW) {
		t.Errorf("BENCHMARK.json workloads = %v, program has %v", gotW, wantW)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []def) {
		var g, w []def
		for _, m := range got {
			g = append(g, def{m.Name, m.Unit})
		}
		w = append(w, want...)
		if !reflect.DeepEqual(g, w) {
			t.Errorf("BENCHMARK.json %s = %v, program has %v", kind, g, w)
		}
	}
	check("end_to_end", b.EndToEnd, endToEndDefs)
	check("per_layer", b.PerLayer, layerDefs)
}
