package asp

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"cep2asp/internal/checkpoint"
	"cep2asp/internal/event"
)

// Checkpoint tests: aligned-barrier snapshots must be complete, restorable,
// and a restored run must emit exactly what an uninterrupted run emits.

func minutesUpTo(n int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

func sortedResultKeys(t *testing.T, res *Results) []string {
	t.Helper()
	keys := res.Keys()
	sort.Strings(keys)
	return keys
}

// killRestoreCompare runs the same graph three times: uninterrupted
// (oracle), checkpointed-and-killed mid-stream, and restored from the
// killed run's latest complete snapshot. The restored run must emit exactly
// the oracle's match set.
func killRestoreCompare(t *testing.T, build func(env *Environment) *Results) {
	t.Helper()

	oracleEnv := NewEnvironment(Config{WatermarkInterval: 16})
	oracleRes := build(oracleEnv)
	if err := oracleEnv.Execute(context.Background()); err != nil {
		t.Fatalf("oracle run: %v", err)
	}
	want := sortedResultKeys(t, oracleRes)
	if len(want) == 0 {
		t.Fatal("oracle produced no matches; test data is inert")
	}

	store := checkpoint.NewMemStore()
	ckEnv := NewEnvironment(Config{
		WatermarkInterval: 16,
		Checkpoint:        &CheckpointSpec{Store: store, Interval: time.Millisecond},
	})
	build(ckEnv)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if ids, _ := store.IDs(); len(ids) > 0 {
				// Let the run advance past the snapshot before killing it.
				time.Sleep(2 * time.Millisecond)
				cancel()
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
		cancel()
	}()
	if err := ckEnv.Execute(ctx); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("checkpointed run: %v", err)
	}
	ids, err := store.IDs()
	if err != nil || len(ids) == 0 {
		t.Fatalf("no complete checkpoint before the kill (ids %v, err %v)", ids, err)
	}

	restEnv := NewEnvironment(Config{
		WatermarkInterval: 16,
		Checkpoint:        &CheckpointSpec{Store: store, Restore: true},
	})
	restRes := build(restEnv)
	if err := restEnv.Execute(context.Background()); err != nil {
		t.Fatalf("restored run: %v", err)
	}
	got := sortedResultKeys(t, restRes)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored run emitted %d matches, oracle %d:\ngot  %v\nwant %v",
			len(got), len(want), got, want)
	}
}

func TestKillRestoreWindowJoin(t *testing.T) {
	killRestoreCompare(t, func(env *Environment) *Results {
		res := NewResults(true, true)
		left := env.Source("q", mkEvents(tQ, 1, minutesUpTo(400), nil), false).Throttle(4000)
		right := env.Source("v", mkEvents(tV, 1, minutesUpTo(400), nil), false).Throttle(4000)
		left.Connect2("join", right, 1, nil, nil, NewWindowJoin(WindowJoinSpec{
			Window: 5 * event.Minute,
			Slide:  event.Minute,
			Predicate: func(l, r []event.Event) bool {
				return l[0].TS < r[0].TS
			},
			DedupEmits: true,
		})).Sink("sink", res.Operator())
		return res
	})
}

func TestKillRestoreIntervalJoin(t *testing.T) {
	killRestoreCompare(t, func(env *Environment) *Results {
		res := NewResults(true, true)
		left := env.Source("q", mkEvents(tQ, 1, minutesUpTo(400), nil), false).Throttle(4000)
		right := env.Source("v", mkEvents(tV, 1, minutesUpTo(400), nil), false).Throttle(4000)
		left.Connect2("join", right, 1, nil, nil, NewIntervalJoin(IntervalJoinSpec{
			Lower: 0,
			Upper: 5 * event.Minute,
		})).Sink("sink", res.Operator())
		return res
	})
}

func TestKillRestoreAggregate(t *testing.T) {
	killRestoreCompare(t, func(env *Environment) *Results {
		res := NewResults(true, true)
		env.Source("v", mkEvents(tV, 1, minutesUpTo(400), nil), false).Throttle(4000).
			Process("agg", 1, nil, NewWindowAggregate(WindowAggregateSpec{
				Window:   5 * event.Minute,
				Slide:    5 * event.Minute,
				MinCount: 2,
			})).
			Sink("sink", res.Operator())
		return res
	})
}

func TestKillRestoreNSEQ(t *testing.T) {
	killRestoreCompare(t, func(env *Environment) *Results {
		res := NewResults(true, true)
		t1 := env.Source("t1", mkEvents(tQ, 1, minutesUpTo(300), nil), false).Throttle(3000)
		t2 := env.Source("t2", mkEvents(tV, 1, []int64{3, 50, 120, 250}, nil), false).Throttle(3000)
		t1.Union("union", t2).
			Process("nseq", 1, nil, NewNextOccurrence(NextOccurrenceSpec{
				T1: tQ, T2: tV, Window: 10 * event.Minute,
			})).
			Sink("sink", res.Operator())
		return res
	})
}

func TestCheckpointCompletesWhileRunning(t *testing.T) {
	store := checkpoint.NewMemStore()
	env := NewEnvironment(Config{
		WatermarkInterval: 16,
		Checkpoint:        &CheckpointSpec{Store: store, Interval: time.Millisecond},
	})
	res := NewResults(true, true)
	left := env.Source("q", mkEvents(tQ, 1, minutesUpTo(300), nil), false).Throttle(3000)
	right := env.Source("v", mkEvents(tV, 1, minutesUpTo(300), nil), false).Throttle(3000)
	left.Connect2("join", right, 1, nil, nil, NewWindowJoin(WindowJoinSpec{
		Window: 5 * event.Minute, Slide: event.Minute,
		Predicate: func(l, r []event.Event) bool { return l[0].TS < r[0].TS },
	})).Sink("sink", res.Operator())
	if err := env.Execute(context.Background()); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if env.CompletedCheckpoints() == 0 {
		t.Fatal("no checkpoint completed during a ~100ms run with 1ms interval")
	}
	stats := env.CheckpointStats()
	if len(stats) == 0 {
		t.Fatal("no checkpoint stats")
	}
	var sawState bool
	for _, st := range stats {
		if st.Bytes > 0 {
			sawState = true
		}
	}
	if !sawState {
		t.Fatal("no checkpoint captured any serialized state")
	}
	// The join node must have recorded per-checkpoint snapshot metrics.
	var joinCkpts int64
	for _, m := range env.NodeStats() {
		if m.Name == "join" {
			joinCkpts = m.Ckpts.Load()
		}
	}
	if joinCkpts == 0 {
		t.Fatal("join recorded no snapshots")
	}
}

func TestRestoreAtEndEmitsNothingNew(t *testing.T) {
	store := checkpoint.NewMemStore()
	build := func(env *Environment) (*Stream, *Results) {
		res := NewResults(true, true)
		src := env.Source("q", mkEvents(tQ, 1, minutesUpTo(50), nil), false)
		src.Filter("f", func(event.Event) bool { return true }).
			Sink("sink", res.Operator())
		return src, res
	}

	env := NewEnvironment(Config{Checkpoint: &CheckpointSpec{Store: store}})
	_, res := build(env)
	if err := env.Execute(context.Background()); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	// All tasks finished: a post-run trigger completes instantly from their
	// final states — a snapshot of the fully drained pipeline.
	if id := env.TriggerCheckpoint(); id == 0 {
		t.Fatal("post-run TriggerCheckpoint refused")
	}
	if env.CompletedCheckpoints() != 1 {
		t.Fatalf("CompletedCheckpoints = %d, want 1", env.CompletedCheckpoints())
	}

	env2 := NewEnvironment(Config{Checkpoint: &CheckpointSpec{Store: store, Restore: true}})
	src2, res2 := build(env2)
	if err := env2.Execute(context.Background()); err != nil {
		t.Fatalf("restored Execute: %v", err)
	}
	if out := src2.Metrics().Out.Load(); out != 0 {
		t.Fatalf("restored source re-emitted %d events; offsets not restored", out)
	}
	if res2.Total() != res.Total() || res2.Unique() != res.Unique() {
		t.Fatalf("restored sink totals %d/%d, want %d/%d (exactly-once)",
			res2.Total(), res2.Unique(), res.Total(), res.Unique())
	}
	got, want := sortedResultKeys(t, res2), sortedResultKeys(t, res)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored matches differ:\ngot  %v\nwant %v", got, want)
	}
}

func TestFileStoreRecoveryEndToEnd(t *testing.T) {
	fs, err := checkpoint.NewFileStore(t.TempDir() + "/ckpts")
	if err != nil {
		t.Fatal(err)
	}
	build := func(env *Environment) *Results {
		res := NewResults(true, true)
		left := env.Source("q", mkEvents(tQ, 1, minutesUpTo(200), nil), false).Throttle(4000)
		right := env.Source("v", mkEvents(tV, 1, minutesUpTo(200), nil), false).Throttle(4000)
		left.Connect2("join", right, 1, nil, nil, NewIntervalJoin(IntervalJoinSpec{
			Lower: 0, Upper: 3 * event.Minute,
		})).Sink("sink", res.Operator())
		return res
	}

	oracleEnv := NewEnvironment(Config{WatermarkInterval: 16})
	oracleRes := build(oracleEnv)
	if err := oracleEnv.Execute(context.Background()); err != nil {
		t.Fatal(err)
	}

	ckEnv := NewEnvironment(Config{
		WatermarkInterval: 16,
		Checkpoint:        &CheckpointSpec{Store: fs, Interval: time.Millisecond},
	})
	build(ckEnv)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		for {
			if ids, _ := fs.IDs(); len(ids) > 0 {
				time.Sleep(2 * time.Millisecond)
				cancel()
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	if err := ckEnv.Execute(ctx); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatal(err)
	}

	// A fresh store handle over the same directory simulates a process
	// restart: recovery state must live entirely on disk.
	fs2, err := checkpoint.NewFileStore(fs.Dir())
	if err != nil {
		t.Fatal(err)
	}
	restEnv := NewEnvironment(Config{
		WatermarkInterval: 16,
		Checkpoint:        &CheckpointSpec{Store: fs2, Restore: true},
	})
	restRes := build(restEnv)
	if err := restEnv.Execute(context.Background()); err != nil {
		t.Fatal(err)
	}
	got, want := sortedResultKeys(t, restRes), sortedResultKeys(t, oracleRes)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("file-store recovery diverged:\ngot  %v\nwant %v", got, want)
	}
}

func TestRestoreRefusesDifferentGraph(t *testing.T) {
	store := checkpoint.NewMemStore()
	env := NewEnvironment(Config{Checkpoint: &CheckpointSpec{Store: store}})
	res := NewResults(false, false)
	env.Source("q", mkEvents(tQ, 1, minutesUpTo(10), nil), false).Sink("sink", res.Operator())
	if err := env.Execute(context.Background()); err != nil {
		t.Fatal(err)
	}
	if env.TriggerCheckpoint() == 0 {
		t.Fatal("trigger refused")
	}

	other := NewEnvironment(Config{Checkpoint: &CheckpointSpec{Store: store, Restore: true}})
	res2 := NewResults(false, false)
	other.Source("different-name", mkEvents(tQ, 1, minutesUpTo(10), nil), false).
		Sink("sink", res2.Operator())
	err := other.Execute(context.Background())
	if err == nil || !strings.Contains(err.Error(), "different graph") {
		t.Fatalf("restore into different graph = %v, want fingerprint error", err)
	}
}

func TestCheckpointRequiresStore(t *testing.T) {
	env := NewEnvironment(Config{Checkpoint: &CheckpointSpec{}})
	res := NewResults(false, false)
	env.Source("q", mkEvents(tQ, 1, minutesUpTo(2), nil), false).Sink("sink", res.Operator())
	if err := env.Execute(context.Background()); err == nil {
		t.Fatal("checkpoint spec without store must fail")
	}
}

// TestRestoreRefusesOlderSnapshotFormat restores window-join and sink
// snapshots in the layout written before snapshotFormat existed (window
// join panes as Left/Right lists plus a seen-set, sink keys as text).
// Gob still matches some of their fields, so only the format check stops
// them from restoring an empty join or a sink that recounts old matches.
func TestRestoreRefusesOlderSnapshotFormat(t *testing.T) {
	type oldPane struct{ Left, Right []Record }
	type oldJoin struct {
		Panes    map[int64]map[event.Time]*oldPane
		NextFire event.Time
		Seen     map[string]event.Time
	}
	type oldResults struct {
		Matches       []*event.Match
		Seen          []string
		Total, Unique int64
	}
	rec := Record{TS: 3, Event: event.Event{Type: tQ, ID: 1, TS: 3}}
	join, err := gobEncode(oldJoin{
		Panes:    map[int64]map[event.Time]*oldPane{0: {3: {Left: []Record{rec}}}},
		NextFire: 0,
		Seen:     map[string]event.Time{"1:1:3": 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	sink, err := gobEncode(oldResults{Seen: []string{"1:1:3"}, Total: 2, Unique: 1})
	if err != nil {
		t.Fatal(err)
	}
	op := NewWindowJoin(WindowJoinSpec{Window: 5, Slide: 1})(0).(Snapshotter)
	if err := op.RestoreState(join); err == nil || !strings.Contains(err.Error(), "format 0") {
		t.Errorf("window join restored an old-format snapshot: err = %v", err)
	}
	if err := NewResults(true, false).restore(sink); err == nil || !strings.Contains(err.Error(), "format 0") {
		t.Errorf("results sink restored an old-format snapshot: err = %v", err)
	}

	// The current format still round-trips.
	if data, err := op.SnapshotState(); err != nil {
		t.Fatal(err)
	} else if err := op.RestoreState(data); err != nil {
		t.Fatalf("current window-join snapshot: %v", err)
	}
	res := NewResults(true, false)
	if data, err := res.snapshot(); err != nil {
		t.Fatal(err)
	} else if err := res.restore(data); err != nil {
		t.Fatalf("current sink snapshot: %v", err)
	}
}
