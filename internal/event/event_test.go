package event

import (
	"testing"
	"testing/quick"
)

func TestRegisterTypeIdempotent(t *testing.T) {
	a := RegisterType("TestQ")
	b := RegisterType("TestQ")
	if a != b {
		t.Fatalf("RegisterType not idempotent: %d vs %d", a, b)
	}
	if got := TypeName(a); got != "TestQ" {
		t.Fatalf("TypeName = %q, want TestQ", got)
	}
	if lt, ok := LookupType("TestQ"); !ok || lt != a {
		t.Fatalf("LookupType = %d,%v want %d,true", lt, ok, a)
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, ok := LookupType("never-registered-type"); ok {
		t.Fatal("LookupType returned ok for unknown name")
	}
	if got := TypeName(Type(1 << 30)); got == "" {
		t.Fatal("TypeName for unknown type should be non-empty placeholder")
	}
}

func TestRegisteredTypesSorted(t *testing.T) {
	RegisterType("ZZTest")
	RegisterType("AATest")
	names := RegisteredTypes()
	for i := 1; i < len(names); i++ {
		if names[i-1] > names[i] {
			t.Fatalf("RegisteredTypes not sorted: %q > %q", names[i-1], names[i])
		}
	}
}

func TestEventAttr(t *testing.T) {
	e := Event{Type: 1, ID: 7, Lat: 52.5, Lon: 13.4, TS: 42, Value: 99.5, AuxTS: 50}
	tests := []struct {
		name string
		want float64
	}{
		{AttrID, 7},
		{AttrLat, 52.5},
		{AttrLon, 13.4},
		{AttrTS, 42},
		{AttrValue, 99.5},
		{AttrAuxTS, 50},
	}
	for _, tc := range tests {
		got, ok := e.Attr(tc.name)
		if !ok || got != tc.want {
			t.Errorf("Attr(%q) = %v,%v want %v,true", tc.name, got, ok, tc.want)
		}
	}
	if _, ok := e.Attr("nope"); ok {
		t.Error("Attr of unknown name returned ok")
	}
}

func TestNewMatchTimestamps(t *testing.T) {
	m := NewMatch(
		Event{Type: 1, TS: 30},
		Event{Type: 2, TS: 10},
		Event{Type: 3, TS: 20},
	)
	if m.TsB != 10 || m.TsE != 30 {
		t.Fatalf("TsB,TsE = %d,%d want 10,30", m.TsB, m.TsE)
	}
}

func TestNewMatchEmpty(t *testing.T) {
	m := NewMatch()
	if m.TsB != 0 || m.TsE != 0 {
		t.Fatalf("empty match TsB,TsE = %d,%d want 0,0", m.TsB, m.TsE)
	}
}

func TestExtendDoesNotMutate(t *testing.T) {
	base := NewMatch(Event{Type: 1, TS: 5})
	ext1 := base.Extend(Event{Type: 2, TS: 9})
	ext2 := base.Extend(Event{Type: 3, TS: 1})
	if len(base.Events) != 1 {
		t.Fatalf("Extend mutated receiver: %d events", len(base.Events))
	}
	if ext1.TsE != 9 || ext1.TsB != 5 {
		t.Fatalf("ext1 TsB,TsE = %d,%d want 5,9", ext1.TsB, ext1.TsE)
	}
	if ext2.TsB != 1 || ext2.TsE != 5 {
		t.Fatalf("ext2 TsB,TsE = %d,%d want 1,5", ext2.TsB, ext2.TsE)
	}
}

func TestExtendFromEmpty(t *testing.T) {
	m := NewMatch().Extend(Event{Type: 1, TS: 77})
	if m.TsB != 77 || m.TsE != 77 {
		t.Fatalf("TsB,TsE = %d,%d want 77,77", m.TsB, m.TsE)
	}
}

func TestConcat(t *testing.T) {
	a := NewMatch(Event{Type: 1, TS: 10}, Event{Type: 2, TS: 20})
	b := NewMatch(Event{Type: 3, TS: 5})
	c := Concat(a, b)
	if len(c.Events) != 3 {
		t.Fatalf("Concat has %d events, want 3", len(c.Events))
	}
	if c.TsB != 5 || c.TsE != 20 {
		t.Fatalf("TsB,TsE = %d,%d want 5,20", c.TsB, c.TsE)
	}
	// Order is preserved: a's events first.
	if c.Events[0].Type != 1 || c.Events[2].Type != 3 {
		t.Fatal("Concat did not preserve constituent order")
	}
}

func TestMatchIngest(t *testing.T) {
	m := NewMatch(Event{Ingest: 5}, Event{Ingest: 42}, Event{Ingest: 17})
	if got := m.Ingest(); got != 42 {
		t.Fatalf("Ingest = %d, want 42", got)
	}
}

func TestMatchKeyDistinguishes(t *testing.T) {
	a := NewMatch(Event{Type: 1, ID: 1, TS: 10}, Event{Type: 2, ID: 1, TS: 20})
	b := NewMatch(Event{Type: 1, ID: 1, TS: 10}, Event{Type: 2, ID: 1, TS: 21})
	c := NewMatch(Event{Type: 1, ID: 1, TS: 10}, Event{Type: 2, ID: 1, TS: 20})
	if a.Key() == b.Key() {
		t.Fatal("different matches share a key")
	}
	if a.Key() != c.Key() {
		t.Fatal("identical matches have different keys")
	}
	// Constituent order does not matter; multiplicity and the field a
	// value sits in do, also where varint lengths could let one field
	// run into the next.
	rev := NewMatch(Event{Type: 2, ID: 1, TS: 20}, Event{Type: 1, ID: 1, TS: 10})
	if rev.Key() != a.Key() {
		t.Fatal("key depends on constituent order")
	}
	distinct := []*Match{
		NewMatch(Event{Type: 1, ID: 1, TS: 10}),
		NewMatch(Event{Type: 1, ID: 1, TS: 10}, Event{Type: 1, ID: 1, TS: 10}),
		NewMatch(Event{Type: 1, ID: 300, TS: 10}),
		NewMatch(Event{Type: 1, ID: 10, TS: 300}),
		NewMatch(Event{Type: 1, ID: -1, TS: 10}),
		NewMatch(Event{Type: 300, ID: 1, TS: 10}),
	}
	seen := map[string]int{}
	for i, m := range distinct {
		if j, dup := seen[m.Key()]; dup {
			t.Fatalf("matches %d and %d share a key: %s, %s", j, i, distinct[j], m)
		}
		seen[m.Key()] = i
	}
}

// Property: Concat timestamps always equal min/max over all constituents.
func TestConcatTimestampProperty(t *testing.T) {
	f := func(tsA, tsB, tsC, tsD int16) bool {
		a := NewMatch(Event{TS: Time(tsA)}, Event{TS: Time(tsB)})
		b := NewMatch(Event{TS: Time(tsC)}, Event{TS: Time(tsD)})
		c := Concat(a, b)
		min, max := c.Events[0].TS, c.Events[0].TS
		for _, e := range c.Events {
			if e.TS < min {
				min = e.TS
			}
			if e.TS > max {
				max = e.TS
			}
		}
		return c.TsB == min && c.TsE == max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Extend never lowers TsE below the new event's timestamp and
// never raises TsB above it.
func TestExtendTimestampProperty(t *testing.T) {
	f := func(base []int16, add int16) bool {
		m := NewMatch()
		for _, ts := range base {
			m = m.Extend(Event{TS: Time(ts)})
		}
		n := m.Extend(Event{TS: Time(add)})
		return n.TsB <= Time(add) && n.TsE >= Time(add) && len(n.Events) == len(base)+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
