package asp

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"cep2asp/internal/event"
	"cep2asp/internal/overload"
)

// Operator-level properties of the window join, driven outside the engine:
// the per-firing output multiset against a brute-force per-window cross
// join, across snapshot/restore, and the shedding contracts (subset of the
// unshed output, recall estimate a lower bound) of both join operators.

// opHarness feeds a two-input operator directly and captures its output.
type opHarness struct {
	op  Operator
	col *Collector
}

func newOpHarness(op Operator) *opHarness {
	e := &edge{chans: []chan []Record{nil}}
	return &opHarness{op: op, col: &Collector{
		env:     &Environment{},
		metrics: &NodeMetrics{},
		senders: []edgeSender{{e: e, pending: make([][]Record, 1)}},
		batch:   math.MaxInt,
		pool:    newBatchPool(16, nil),
	}}
}

// drain returns the records emitted since the last drain.
func (d *opHarness) drain() []Record {
	s := &d.col.senders[0]
	b := s.pending[0]
	s.pending[0] = nil
	return b
}

// arrival is one input record and the port it is fed to.
type arrival struct {
	port int
	e    event.Event
}

// joinCase is a random join input: both streams, keys, a predicate, and
// the window geometry.
type joinCase struct {
	spec        WindowJoinSpec
	pred        JoinPredicate
	left, right []event.Event
	maxTS       event.Time
	desc        string
}

func randJoinCase(rng *rand.Rand) joinCase {
	s := event.Time(1+rng.Intn(4)) * event.Minute
	w := s // tumbling
	switch rng.Intn(3) {
	case 1:
		w = s * event.Time(2+rng.Intn(5))
	case 2: // not a multiple of the slide
		w = s*event.Time(1+rng.Intn(4)) + event.Time(1+rng.Int63n(int64(s/event.Second)-1))*event.Second
	}
	keys := 1 + rng.Intn(8)
	c := joinCase{maxTS: event.Time(20+rng.Intn(30)) * event.Minute}
	gen := func(typ event.Type) []event.Event {
		evs := make([]event.Event, rng.Intn(40))
		for i := range evs {
			evs[i] = event.Event{
				Type: typ, ID: int64(rng.Intn(keys)),
				TS:    rng.Int63n(int64(c.maxTS/event.Second)) * event.Second,
				Value: float64(rng.Intn(10)),
			}
		}
		return evs
	}
	c.left = gen(tQ)
	self := rng.Intn(4) == 0
	if self {
		c.right = c.left
	} else {
		c.right = gen(tV)
	}
	preds := []JoinPredicate{
		nil,
		func(l, r []event.Event) bool { return l[0].TS < r[0].TS },
		func(l, r []event.Event) bool { return int(l[0].Value+r[0].Value)%3 != 0 },
		func(l, r []event.Event) bool { return l[0].Value <= r[0].Value },
	}
	pi := rng.Intn(len(preds))
	c.pred = preds[pi]
	c.spec = WindowJoinSpec{Window: w, Slide: s, Predicate: c.pred, DedupEmits: rng.Intn(2) == 0, SelfJoin: self}
	if keys > 1 || rng.Intn(2) == 0 {
		c.spec.LeftKey = func(r Record) int64 { return r.Event.ID }
		c.spec.RightKey = c.spec.LeftKey
	}
	c.desc = fmt.Sprintf("W=%v S=%v keys=%d pred=%d dedup=%v self=%v |L|=%d |R|=%d",
		w, s, keys, pi, c.spec.DedupEmits, self, len(c.left), len(c.right))
	return c
}

// steps returns the window indexes fired one per harness step, and assigns
// every record a step no later than the one whose watermark passes it,
// up to two steps early, so records arrive out of order and panes fill
// across firings.
func (c *joinCase) steps(rng *rand.Rand) (kFirst, kLast event.Time, arrivals [][]arrival) {
	kFirst, _ = event.WindowsOf(0, c.spec.Window, c.spec.Slide)
	_, kLast = event.WindowsOf(c.maxTS, c.spec.Window, c.spec.Slide)
	arrivals = make([][]arrival, kLast-kFirst+2)
	add := func(port int, evs []event.Event) {
		for _, e := range evs {
			k, _ := event.WindowsOf(e.TS, c.spec.Window, c.spec.Slide) // first watermark at or past e.TS
			st := int(k-kFirst) - rng.Intn(3)
			if st < 0 {
				st = 0
			}
			arrivals[st] = append(arrivals[st], arrival{port, e})
		}
	}
	add(0, c.left)
	add(1, c.right)
	for _, a := range arrivals {
		rng.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
	}
	return kFirst, kLast, arrivals
}

// oracle is the brute-force output of window k: the cross join of the
// window's left and right records per key under the predicate, each pair
// once per window — or, with DedupEmits, once in its first window, twins
// of a self join counted once.
func (c *joinCase) oracle(k event.Time) map[string]int {
	s, w := c.spec.Slide, c.spec.Window
	in := func(ts event.Time) bool { return ts >= k*s && ts < k*s+w }
	key := func(e event.Event) int64 {
		if c.spec.LeftKey == nil {
			return 0
		}
		return e.ID
	}
	out := map[string]int{}
	for _, l := range c.left {
		for _, r := range c.right {
			if !in(l.TS) || !in(r.TS) || key(l) != key(r) {
				continue
			}
			if c.pred != nil && !c.pred([]event.Event{l}, []event.Event{r}) {
				continue
			}
			m := event.NewMatch(l, r)
			id := m.Key()
			matchNames[id] = m.String()
			if !c.spec.DedupEmits {
				out[id]++
				continue
			}
			if kLo, _ := event.WindowsOf(max(l.TS, r.TS), w, s); kLo == k {
				if c.spec.SelfJoin {
					out[id] = 1
				} else {
					out[id]++
				}
			}
		}
	}
	return out
}

// matchNames renders the binary match identities of failure messages.
var matchNames = map[string]string{}

func countKeys(recs []Record) map[string]int {
	out := map[string]int{}
	for _, r := range recs {
		id := r.Match.Key()
		matchNames[id] = r.Match.String()
		out[id]++
	}
	return out
}

func renderCounts(counts map[string]int) string {
	var b strings.Builder
	for id, n := range counts {
		fmt.Fprintf(&b, "\n  %d× %s", n, matchNames[id])
	}
	return b.String()
}

func sameCounts(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, n := range a {
		if b[k] != n {
			return false
		}
	}
	return true
}

// TestWindowJoinMatchesPerWindowOracle checks every firing's output
// multiset against the brute-force cross join of its window, over random
// window geometries (tumbling, multiples of the slide, and windows that
// are not), key counts, predicates, dedup, self joins, out-of-order
// arrival, and a snapshot/restore at a random barrier. A pair attributed
// to the wrong number of windows changes some firing's multiset.
func TestWindowJoinMatchesPerWindowOracle(t *testing.T) {
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := randJoinCase(rng)
		kFirst, kLast, arrivals := c.steps(rng)
		factory := NewWindowJoin(c.spec)
		d := newOpHarness(factory(0))
		barrier := rng.Intn(len(arrivals))
		for st, batch := range arrivals {
			if st == barrier {
				data, err := d.op.(Snapshotter).SnapshotState()
				if err != nil {
					t.Fatalf("seed %d: snapshot: %v", seed, err)
				}
				restored := factory(0)
				if err := restored.(Snapshotter).RestoreState(data); err != nil {
					t.Fatalf("seed %d: restore: %v", seed, err)
				}
				if got, want := restored.(StateCounter).BufferedState(), d.op.(StateCounter).BufferedState(); got != want {
					t.Fatalf("seed %d (%s): restored state %d, want %d", seed, c.desc, got, want)
				}
				d.op = restored
			}
			for _, a := range batch {
				d.op.OnRecord(a.port, EventRecord(a.e), d.col)
			}
			k := kFirst + event.Time(st)
			d.op.OnWatermark(k*c.spec.Slide+c.spec.Window-1, d.col)
			got, want := countKeys(d.drain()), c.oracle(k)
			if !sameCounts(got, want) {
				t.Fatalf("seed %d (%s): window %d (barrier before step %d) emitted:%s\nwant:%s",
					seed, c.desc, k, barrier, renderCounts(got), renderCounts(want))
			}
			if acct, buf := d.col.env.StateSize(), d.op.(StateCounter).BufferedState(); acct != buf {
				t.Fatalf("seed %d (%s): AddState accounts %d units, operator buffers %d", seed, c.desc, acct, buf)
			}
		}
		d.op.OnWatermark(event.MaxWatermark, d.col)
		if rest := d.drain(); len(rest) != 0 {
			t.Fatalf("seed %d (%s): %d emissions after window %d", seed, c.desc, len(rest), kLast)
		}
		if n := d.op.(StateCounter).BufferedState(); n != 0 || d.col.env.StateSize() != 0 {
			t.Fatalf("seed %d (%s): %d units left after the final watermark (accounted %d)", seed, c.desc, n, d.col.env.StateSize())
		}
	}
}

// shedRun drives a join over a case's arrivals and returns its output
// multiset. With shed set, a random strategy and target are applied at
// random steps and the harness reports the lost-match bound.
func shedRun(t *testing.T, op Operator, c *joinCase, arrivals [][]arrival, kFirst event.Time, rng *rand.Rand) (map[string]int, *opHarness, int64) {
	t.Helper()
	d := newOpHarness(op)
	out := map[string]int{}
	var shedUnits int64
	for st, batch := range arrivals {
		for _, a := range batch {
			d.op.OnRecord(a.port, EventRecord(a.e), d.col)
		}
		if rng != nil && rng.Intn(2) == 0 {
			target := rng.Int63n(d.op.(StateCounter).BufferedState() + 1)
			if rng.Intn(2) == 0 {
				shedUnits += d.op.(Shedder).ShedOldest(target, d.col)
			} else {
				shedUnits += d.op.(ValueShedder).ShedLowestValue(target, d.col)
			}
			if n := d.op.(StateCounter).BufferedState(); n > target {
				t.Fatalf("%s: %d units left after shedding to %d", c.desc, n, target)
			}
		}
		k := kFirst + event.Time(st)
		d.op.OnWatermark(k*c.spec.Slide+c.spec.Window-1, d.col)
		for id, n := range countKeys(d.drain()) {
			out[id] += n
		}
	}
	d.op.OnWatermark(event.MaxWatermark, d.col)
	for id, n := range countKeys(d.drain()) {
		out[id] += n
	}
	if acct, buf := d.col.env.StateSize(), d.op.(StateCounter).BufferedState(); acct != buf {
		t.Fatalf("%s: AddState accounts %d units, operator buffers %d", c.desc, acct, buf)
	}
	return out, d, shedUnits
}

// checkShedContracts asserts the shed output is a sub-multiset of the
// unshed output and that the recall estimate does not exceed the recall
// achieved on unique matches.
func checkShedContracts(t *testing.T, seed int64, c *joinCase, full, shed map[string]int, d *opHarness) {
	t.Helper()
	for id, n := range shed {
		if n > full[id] {
			t.Fatalf("seed %d (%s): shed run emitted %s %d times, unshed %d", seed, c.desc, matchNames[id], n, full[id])
		}
	}
	if len(full) == 0 {
		return
	}
	achieved := float64(len(shed)) / float64(len(full))
	est := overload.RecallEstimate(int64(len(shed)), d.col.env.LostMatchBound())
	if est > achieved+1e-9 {
		t.Fatalf("seed %d (%s): RecallEstimate %g over-reports achieved recall %g (%d of %d, lost bound %g)",
			seed, c.desc, est, achieved, len(shed), len(full), d.col.env.LostMatchBound())
	}
}

// TestWindowJoinShedAgainstUnshed sheds window-join state — panes with
// their stored pairs — at random steps to random targets under both
// strategies, half the time also capping stored pairs (SetStateBudget).
func TestWindowJoinShedAgainstUnshed(t *testing.T) {
	var shedTotal int64
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := randJoinCase(rng)
		kFirst, _, arrivals := c.steps(rng)
		full, _, _ := shedRun(t, NewWindowJoin(c.spec)(0), &c, arrivals, kFirst, nil)
		op := NewWindowJoin(c.spec)(0)
		if rng.Intn(2) == 0 {
			limit := 1 + rng.Int63n(40)
			op.(SelfShedder).SetStateBudget(limit, limit/2, nil)
			c.desc += fmt.Sprintf(" cap=%d", limit)
		}
		shed, d, n := shedRun(t, op, &c, arrivals, kFirst, rng)
		shedTotal += n
		checkShedContracts(t, seed, &c, full, shed, d)
	}
	if shedTotal == 0 {
		t.Fatal("no case shed any state")
	}
}

// TestIntervalJoinShedAgainstUnshed applies the same contracts to the
// interval join (optimization O1) with ordered (0, W) and symmetric
// (-W, W) bounds.
func TestIntervalJoinShedAgainstUnshed(t *testing.T) {
	var shedTotal int64
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := randJoinCase(rng)
		kFirst, _, arrivals := c.steps(rng)
		spec := IntervalJoinSpec{
			Lower: -c.spec.Window, Upper: c.spec.Window,
			LeftKey: c.spec.LeftKey, RightKey: c.spec.RightKey, Predicate: c.pred,
		}
		if rng.Intn(2) == 0 {
			spec.Lower = 0
		}
		c.desc += fmt.Sprintf(" interval=(%v,%v)", spec.Lower, spec.Upper)
		full, _, _ := shedRun(t, NewIntervalJoin(spec)(0), &c, arrivals, kFirst, nil)
		shed, d, n := shedRun(t, NewIntervalJoin(spec)(0), &c, arrivals, kFirst, rng)
		shedTotal += n
		checkShedContracts(t, seed, &c, full, shed, d)
	}
	if shedTotal == 0 {
		t.Fatal("no case shed any state")
	}
}
