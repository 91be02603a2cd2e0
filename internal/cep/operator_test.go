package cep

import (
	"container/heap"
	"math/rand"
	"testing"

	"cep2asp/internal/event"
	"cep2asp/internal/nfa"
)

// refHeap is the container/heap reorder buffer the typed eventHeap
// replaced; it pins the pop order of equal timestamps.
type refHeap []event.Event

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].TS < h[j].TS }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(event.Event)) }
func (h *refHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// tiedEvents draws n events over few distinct timestamps; the ID records
// arrival order, so a pop sequence shows how ties were broken.
func tiedEvents(rng *rand.Rand, n int) []event.Event {
	es := make([]event.Event, n)
	for i := range es {
		es[i] = event.Event{ID: int64(i), TS: rng.Int63n(8)}
	}
	return es
}

func sameOrder(t *testing.T, got, want []event.Event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("popped %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || got[i].TS != want[i].TS {
			t.Fatalf("pop %d: got id=%d ts=%d, container/heap gives id=%d ts=%d",
				i, got[i].ID, got[i].TS, want[i].ID, want[i].TS)
		}
	}
}

func TestReorderHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 200; round++ {
		var h eventHeap
		var ref refHeap
		var got, want []event.Event
		// Interleave pushes and pops, as watermarks drain the buffer
		// while records keep arriving.
		for _, e := range tiedEvents(rng, 1+rng.Intn(64)) {
			h.push(e)
			heap.Push(&ref, e)
			for len(h) > 0 && rng.Intn(3) == 0 {
				got = append(got, h.pop())
				want = append(want, heap.Pop(&ref).(event.Event))
			}
		}
		for len(h) > 0 {
			got = append(got, h.pop())
		}
		for ref.Len() > 0 {
			want = append(want, heap.Pop(&ref).(event.Event))
		}
		sameOrder(t, got, want)
	}
}

func TestReorderHeapInitMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for round := 0; round < 200; round++ {
		es := tiedEvents(rng, rng.Intn(64))
		h := eventHeap(append([]event.Event(nil), es...))
		ref := refHeap(append([]event.Event(nil), es...))
		h.init()
		heap.Init(&ref)
		var got, want []event.Event
		for len(h) > 0 {
			got = append(got, h.pop())
			want = append(want, heap.Pop(&ref).(event.Event))
		}
		sameOrder(t, got, want)
	}
}

func TestReorderHeapOrderSurvivesRestore(t *testing.T) {
	prog, err := Compile(mustPattern(t, `PATTERN SEQ(CA a, CB b) WITHIN 10 MIN`), nfa.SkipTillAnyMatch, nil)
	if err != nil {
		t.Fatal(err)
	}
	newOp, err := NewOperator(prog)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	src := newOp(0).(*cepOperator)
	for _, e := range tiedEvents(rng, 100) {
		src.buffer.push(e)
	}
	// The reference heap-orders the snapshotted buffer the way the
	// container/heap operator restored it.
	ref := refHeap(append([]event.Event(nil), src.buffer...))
	heap.Init(&ref)
	data, err := src.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	dst := newOp(0).(*cepOperator)
	if err := dst.RestoreState(data); err != nil {
		t.Fatal(err)
	}
	var got, want, orig []event.Event
	for len(dst.buffer) > 0 {
		got = append(got, dst.buffer.pop())
		orig = append(orig, src.buffer.pop())
		want = append(want, heap.Pop(&ref).(event.Event))
	}
	sameOrder(t, got, want)
	sameOrder(t, got, orig)
}

func TestReorderBufferDoesNotAllocate(t *testing.T) {
	o := &cepOperator{buffer: make(eventHeap, 0, 4)}
	o.buffer.push(event.Event{TS: 1})
	e := event.Event{TS: 2}
	if n := testing.AllocsPerRun(100, func() {
		o.buffer.push(e)
		o.buffer.pop()
	}); n != 0 {
		t.Fatalf("%v allocations per buffered event, want 0", n)
	}
}

func TestMachineStepDoesNotAllocate(t *testing.T) {
	// The iter3_fcep benchmark pattern: a pairwise and a threshold
	// predicate at every iteration stage.
	prog, err := Compile(mustPattern(t, `
		PATTERN ITER(CV v, 3)
		WHERE v[i].value < v[i+1].value AND v.value <= 50
		WITHIN 15 MINUTES`), nfa.SkipTillAnyMatch, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := nfa.NewMachine(prog)
	if err != nil {
		t.Fatal(err)
	}
	tv := event.RegisterType("CV")
	emitted := 0
	emit := func(*event.Match) { emitted++ }
	m.OnEvent(event.Event{Type: tv, TS: 0, Value: 10}, emit)
	m.OnEvent(event.Event{Type: tv, TS: event.Minute, Value: 20}, emit)
	state := m.StateSize()
	// Above every live partial's last value, so the pairwise predicates
	// pass, but over the threshold: the event advances no partial.
	e := event.Event{Type: tv, TS: 2 * event.Minute, Value: 60}
	if n := testing.AllocsPerRun(100, func() { m.OnEvent(e, emit) }); n != 0 {
		t.Fatalf("%v allocations per OnEvent, want 0", n)
	}
	if emitted != 0 || m.StateSize() != state {
		t.Fatalf("probe event changed the machine: %d matches, state %d -> %d", emitted, state, m.StateSize())
	}
}
