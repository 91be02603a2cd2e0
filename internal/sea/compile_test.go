package sea

import (
	"testing"
	"testing/quick"

	"cep2asp/internal/event"
)

func TestCompileBoolBasic(t *testing.T) {
	// q.value >= 100 AND v.value <= 30
	expr := And{
		L: Cmp{Op: CmpGE, L: Ref("q", "value"), R: Lit(100)},
		R: Cmp{Op: CmpLE, L: Ref("v", "value"), R: Lit(30)},
	}
	pred, err := CompileBool(expr, Layout{"q": 0, "v": 1})
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		q, v float64
		want bool
	}{
		{100, 30, true},
		{99, 30, false},
		{100, 31, false},
		{150, 10, true},
	}
	for _, tc := range tests {
		got := pred([]event.Event{{Value: tc.q}, {Value: tc.v}})
		if got != tc.want {
			t.Errorf("pred(q=%g, v=%g) = %v, want %v", tc.q, tc.v, got, tc.want)
		}
	}
}

func TestCompileArithmeticAndOps(t *testing.T) {
	// (a.value + 1) * 2 - 4 / 2 != a.id  ... exercises every arith op.
	expr := Cmp{
		Op: CmpNE,
		L: Arith{Op: OpSub,
			L: Arith{Op: OpMul, L: Arith{Op: OpAdd, L: Ref("a", "value"), R: Lit(1)}, R: Lit(2)},
			R: Arith{Op: OpDiv, L: Lit(4), R: Lit(2)},
		},
		R: Ref("a", "id"),
	}
	pred, err := CompileBool(expr, Layout{"a": 0})
	if err != nil {
		t.Fatal(err)
	}
	// (3+1)*2-2 = 6; id=6 -> equal -> NE false
	if pred([]event.Event{{Value: 3, ID: 6}}) {
		t.Error("NE returned true for equal values")
	}
	if !pred([]event.Event{{Value: 3, ID: 7}}) {
		t.Error("NE returned false for unequal values")
	}
}

func TestCompileOrNot(t *testing.T) {
	expr := Or{
		L: Not{E: Cmp{Op: CmpGT, L: Ref("a", "value"), R: Lit(5)}},
		R: Cmp{Op: CmpEQ, L: Ref("a", "id"), R: Lit(9)},
	}
	pred, err := CompileBool(expr, Layout{"a": 0})
	if err != nil {
		t.Fatal(err)
	}
	if !pred([]event.Event{{Value: 3, ID: 0}}) { // NOT(3>5) = true
		t.Error("want true via NOT branch")
	}
	if !pred([]event.Event{{Value: 10, ID: 9}}) { // id==9
		t.Error("want true via OR branch")
	}
	if pred([]event.Event{{Value: 10, ID: 1}}) {
		t.Error("want false")
	}
}

func TestCompileMissingAlias(t *testing.T) {
	_, err := CompileBool(Cmp{Op: CmpGT, L: Ref("zz", "value"), R: Lit(1)}, Layout{"a": 0})
	if err == nil {
		t.Fatal("CompileBool accepted alias missing from layout")
	}
}

func TestCompileIndexedOutsideIter(t *testing.T) {
	_, err := CompileBool(Cmp{Op: CmpLT, L: RefI("e", "value"), R: Lit(1)}, Layout{"e": 0})
	if err == nil {
		t.Fatal("CompileBool accepted indexed reference")
	}
}

func TestCompileIndexedIncreasing(t *testing.T) {
	// e[i].value < e[i+1].value — the paper's ITER_2 constraint — lowered
	// onto positions 2 and 0 of a three-event slice.
	expr := Cmp{Op: CmpLT, L: RefI("e", "value"), R: RefNext("e", "value")}
	pred, err := CompileIndexed(expr, "e", 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !pred([]event.Event{{Value: 2}, {Value: 9}, {Value: 1}}) {
		t.Error("1 < 2 should hold")
	}
	if pred([]event.Event{{Value: 2}, {Value: 0}, {Value: 2}}) {
		t.Error("2 < 2 should not hold")
	}
}

func TestCompileIndexedMixedRefs(t *testing.T) {
	// A pairwise predicate can also mention other plain aliases... but
	// those must be rejected since CompileIndexed only has the pair layout.
	expr := Cmp{Op: CmpLT, L: RefI("e", "value"), R: Ref("q", "value")}
	if _, err := CompileIndexed(expr, "e", 0, 1); err == nil {
		t.Fatal("CompileIndexed accepted a foreign plain alias")
	}
}

func TestCompiledAttributesMatchEventAttr(t *testing.T) {
	e := event.Event{ID: 7, Lat: 1.5, Lon: -2.5, TS: 11, Value: 3.25, AuxTS: 13}
	for _, name := range []string{event.AttrID, event.AttrLat, event.AttrLon, event.AttrTS, event.AttrValue, event.AttrAuxTS} {
		get, err := attrFn(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := e.Attr(name)
		if got := get([]event.Event{{}, e}); got != want {
			t.Errorf("%s: compiled accessor read %g, Event.Attr %g", name, got, want)
		}
	}
	if _, err := attrFn("nope", 0); err == nil {
		t.Error("unknown attribute compiled")
	}
}

func TestCompiledPredicatesDoNotAllocate(t *testing.T) {
	plain, err := CompileBool(And{
		L: Cmp{Op: CmpLT, L: Ref("a", "value"), R: Arith{Op: OpMul, L: Ref("b", "ts"), R: Lit(2)}},
		R: Or{L: Cmp{Op: CmpGE, L: Ref("b", "lat"), R: Lit(0)}, R: Not{E: Cmp{Op: CmpEQ, L: Ref("a", "id"), R: Lit(1)}}},
	}, Layout{"a": 0, "b": 1})
	if err != nil {
		t.Fatal(err)
	}
	indexed, err := CompileIndexed(Cmp{Op: CmpLT, L: RefI("e", "value"), R: RefNext("e", "value")}, "e", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	es := []event.Event{{ID: 1, Value: 1, TS: 3}, {Value: 2, TS: 4, Lat: 1}}
	for name, pred := range map[string]Predicate{"CompileBool": plain, "CompileIndexed": indexed} {
		if !pred(es) {
			t.Fatalf("%s: predicate should hold on %v", name, es)
		}
		if n := testing.AllocsPerRun(100, func() { pred(es) }); n != 0 {
			t.Errorf("%s: %v allocations per evaluation, want 0", name, n)
		}
	}
}

func TestEvalPartialVacuous(t *testing.T) {
	// Conjuncts over unbound aliases are vacuously satisfied.
	expr := And{
		L: Cmp{Op: CmpGT, L: Ref("a", "value"), R: Lit(5)},
		R: Cmp{Op: CmpGT, L: Ref("b", "value"), R: Lit(5)},
	}
	bind := map[string]event.Event{"a": {Value: 10}}
	if !EvalPartial(expr, bind) {
		t.Error("partial binding should satisfy vacuously")
	}
	bind["a"] = event.Event{Value: 1}
	if EvalPartial(expr, bind) {
		t.Error("bound false conjunct must fail")
	}
}

func TestEvalPartialOrShortCircuit(t *testing.T) {
	// true OR unknown = true; false OR unknown = unknown -> treated true.
	expr := Or{
		L: Cmp{Op: CmpGT, L: Ref("a", "value"), R: Lit(5)},
		R: Cmp{Op: CmpGT, L: Ref("b", "value"), R: Lit(5)},
	}
	if !EvalPartial(expr, map[string]event.Event{"a": {Value: 10}}) {
		t.Error("true OR unknown should be true")
	}
	if !EvalPartial(expr, map[string]event.Event{"a": {Value: 1}}) {
		t.Error("false OR unknown is unknown, treated as satisfied")
	}
	// Fully bound false.
	if EvalPartial(expr, map[string]event.Event{"a": {Value: 1}, "b": {Value: 1}}) {
		t.Error("false OR false should fail")
	}
}

func TestEvalPartialNot(t *testing.T) {
	expr := Not{E: Cmp{Op: CmpGT, L: Ref("a", "value"), R: Lit(5)}}
	if EvalPartial(expr, map[string]event.Event{"a": {Value: 10}}) {
		t.Error("NOT true should be false")
	}
	if !EvalPartial(expr, map[string]event.Event{"a": {Value: 1}}) {
		t.Error("NOT false should be true")
	}
	// NOT unknown stays unknown -> satisfied.
	if !EvalPartial(expr, map[string]event.Event{}) {
		t.Error("NOT unknown should be treated as satisfied")
	}
}

// Property: for fully bound single-alias comparisons, compiled evaluation and
// partial evaluation agree.
func TestCompiledMatchesPartialProperty(t *testing.T) {
	ops := []CmpOp{CmpEQ, CmpNE, CmpLT, CmpLE, CmpGT, CmpGE}
	f := func(value float64, lit float64, opIdx uint8) bool {
		op := ops[int(opIdx)%len(ops)]
		expr := Cmp{Op: op, L: Ref("a", "value"), R: NumLit{V: lit}}
		pred, err := CompileBool(expr, Layout{"a": 0})
		if err != nil {
			return false
		}
		e := event.Event{Value: value}
		return pred([]event.Event{e}) == EvalPartial(expr, map[string]event.Event{"a": e})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEquiPair(t *testing.T) {
	la, lat, ra, rat, ok := EquiPair(Cmp{Op: CmpEQ, L: Ref("q", "id"), R: Ref("v", "id")})
	if !ok || la != "q" || lat != "id" || ra != "v" || rat != "id" {
		t.Fatalf("EquiPair = %q.%q == %q.%q ok=%v", la, lat, ra, rat, ok)
	}
	// Not equi: different ops, same alias, literals, indexed refs.
	if _, _, _, _, ok := EquiPair(Cmp{Op: CmpLT, L: Ref("q", "id"), R: Ref("v", "id")}); ok {
		t.Error("LT accepted as equi pair")
	}
	if _, _, _, _, ok := EquiPair(Cmp{Op: CmpEQ, L: Ref("q", "id"), R: Ref("q", "value")}); ok {
		t.Error("same-alias equality accepted as equi pair")
	}
	if _, _, _, _, ok := EquiPair(Cmp{Op: CmpEQ, L: Ref("q", "id"), R: Lit(5)}); ok {
		t.Error("literal equality accepted as equi pair")
	}
	if _, _, _, _, ok := EquiPair(Cmp{Op: CmpEQ, L: RefI("q", "id"), R: Ref("v", "id")}); ok {
		t.Error("indexed ref accepted as equi pair")
	}
}

func TestConjunctsConjoinRoundTrip(t *testing.T) {
	a := Cmp{Op: CmpGT, L: Ref("x", "value"), R: Lit(1)}
	b := Cmp{Op: CmpLT, L: Ref("y", "value"), R: Lit(2)}
	c := Cmp{Op: CmpEQ, L: Ref("x", "id"), R: Ref("y", "id")}
	e := Conjoin([]BoolExpr{a, b, c})
	parts := Conjuncts(e)
	if len(parts) != 3 {
		t.Fatalf("Conjuncts = %d parts, want 3", len(parts))
	}
	if len(Conjuncts(TrueExpr{})) != 0 {
		t.Fatal("Conjuncts(TRUE) should be empty")
	}
	if _, ok := Conjoin(nil).(TrueExpr); !ok {
		t.Fatal("Conjoin(nil) should be TRUE")
	}
}

func TestAliasesSorted(t *testing.T) {
	e := And{
		L: Cmp{Op: CmpGT, L: Ref("zeta", "value"), R: Lit(1)},
		R: Cmp{Op: CmpGT, L: Ref("alpha", "value"), R: Ref("zeta", "value")},
	}
	got := Aliases(e)
	if len(got) != 2 || got[0] != "alpha" || got[1] != "zeta" {
		t.Fatalf("Aliases = %v", got)
	}
}
