package nfa

import (
	"fmt"
	"testing"

	"cep2asp/internal/event"
)

// matchKey identifies a match by its constituent timestamps.
func matchKey(m *event.Match) string {
	s := ""
	for _, e := range m.Events {
		s += fmt.Sprintf("%d/", e.TS)
	}
	return s
}

func TestSetBudgetCapsStateAndKeepsSubset(t *testing.T) {
	// SEQ(A, B, !D, C) keyed over five IDs: every key holds its own
	// partials, so state exceeds the budget under every policy, and the
	// middle stage makes admit shed mid-pass while partials are consumed.
	// Each round feeds every key A, then B, then C, contiguous per key so
	// that strict contiguity matches too; a D blocker in round 1 voids
	// key 0's matches that span it.
	var events []event.Event
	minute := int64(0)
	for round := 0; round < 4; round++ {
		for _, typ := range []event.Type{tA, tB, tC} {
			if round == 1 && typ == tC {
				events = append(events, event.Event{Type: tD, ID: 0, TS: minute * event.Minute})
				minute++
			}
			for id := int64(0); id < 5; id++ {
				events = append(events, event.Event{Type: typ, ID: id, TS: minute * event.Minute})
				minute++
			}
		}
	}

	for _, policy := range []Policy{SkipTillAnyMatch, SkipTillNextMatch, StrictContiguity} {
		t.Run(policy.String(), func(t *testing.T) {
			prog := &Program{
				Name:      "nseq3",
				Stages:    []Stage{{Name: "a", Type: tA}, {Name: "b", Type: tB}, {Name: "c", Type: tC}},
				Negations: []Negation{{Type: tD, After: 1}},
				Window:    100 * event.Minute,
				Policy:    policy,
				Key:       func(e event.Event) int64 { return e.ID },
			}
			unbudgeted := collect(t, prog, events)
			full := make(map[string]bool, len(unbudgeted))
			for _, m := range unbudgeted {
				full[matchKey(m)] = true
			}

			const budget = 4
			m, err := NewMachine(prog)
			if err != nil {
				t.Fatal(err)
			}
			var shed int64
			m.SetBudget(
				func() int64 { return budget },
				func() int64 { return budget / 2 },
				func(n int64) { shed += n },
			)
			var capped []*event.Match
			emit := func(ma *event.Match) { capped = append(capped, ma) }
			for _, e := range events {
				m.OnEvent(e, emit)
				// Blockers are never capped; partials and pendings are.
				if got := m.StateSize() - blockerCount(m); got > budget {
					t.Fatalf("%d partials and pendings after event at %d, budget %d", got, e.TS, budget)
				}
				checkStateCounts(t, m)
			}
			m.OnWatermark(event.MaxWatermark, emit)
			checkStateCounts(t, m)

			if shed == 0 {
				t.Fatal("expected non-zero shed count under a tight budget")
			}
			if len(capped) == 0 {
				t.Fatal("capped run should still produce some matches")
			}
			if len(capped) >= len(unbudgeted) {
				t.Fatalf("capped run found %d matches, unbudgeted %d: expected fewer", len(capped), len(unbudgeted))
			}
			for _, ma := range capped {
				if !full[matchKey(ma)] {
					t.Fatalf("capped run fabricated match %v not present unbudgeted", ma.Events)
				}
			}
		})
	}
}

func blockerCount(m *Machine) int64 {
	var n int64
	for _, g := range m.groups {
		for _, bs := range g.blockers {
			n += int64(len(bs))
		}
	}
	return n
}

// checkStateCounts recounts the machine's live partials, pending matches
// and blockers, and their constituent events, against the incrementally
// maintained StateSize and StateElems.
func checkStateCounts(t *testing.T, m *Machine) {
	t.Helper()
	var units, elems int64
	for _, g := range m.groups {
		for _, ps := range g.partials {
			for _, p := range ps {
				if !p.dead {
					units++
					elems += int64(len(p.events))
				}
			}
		}
		for _, pm := range g.pending {
			if !pm.dead {
				units++
				elems += int64(len(pm.events))
			}
		}
	}
	b := blockerCount(m)
	units += b
	elems += b
	if m.StateSize() != units || m.StateElems() != elems {
		t.Fatalf("StateSize/StateElems = %d/%d, recount %d/%d", m.StateSize(), m.StateElems(), units, elems)
	}
}

func TestSetBudgetNeverShedsBlockers(t *testing.T) {
	// SEQ(A, !C, B): the C blocker between a and b must survive shedding,
	// so the negated match is still suppressed under a budget of 2.
	prog := &Program{
		Name:      "nseq",
		Stages:    []Stage{{Name: "a", Type: tA}, {Name: "b", Type: tB}},
		Negations: []Negation{{Type: tC, After: 0}},
		Window:    100 * event.Minute,
		Policy:    SkipTillAnyMatch,
	}
	events := []event.Event{
		ev(tA, 0, 0), ev(tA, 1, 0), ev(tA, 2, 0), ev(tA, 3, 0),
		ev(tC, 4, 0), // blocks every (a, b) pair below
		ev(tB, 5, 0),
	}
	m, err := NewMachine(prog)
	if err != nil {
		t.Fatal(err)
	}
	m.SetBudget(func() int64 { return 2 }, func() int64 { return 1 }, nil)
	var out []*event.Match
	emit := func(ma *event.Match) { out = append(out, ma) }
	for _, e := range events {
		m.OnEvent(e, emit)
	}
	m.OnWatermark(event.MaxWatermark, emit)
	if len(out) != 0 {
		t.Fatalf("got %d matches, want 0: shedding must never drop blockers", len(out))
	}
}

func TestShedToReturnsDropped(t *testing.T) {
	prog := seqAB(SkipTillAnyMatch)
	m, err := NewMachine(prog)
	if err != nil {
		t.Fatal(err)
	}
	emit := func(*event.Match) {}
	for i := int64(0); i < 6; i++ {
		m.OnEvent(ev(tA, i, 0), emit)
	}
	if got := m.StateSize(); got != 6 {
		t.Fatalf("StateSize = %d, want 6", got)
	}
	if d := m.ShedTo(2); d != 4 {
		t.Fatalf("ShedTo(2) dropped %d, want 4", d)
	}
	if got := m.StateSize(); got != 2 {
		t.Fatalf("StateSize after shed = %d, want 2", got)
	}
	if got := m.StateElems(); got != 2 {
		t.Fatalf("StateElems after shed = %d, want 2", got)
	}
}
