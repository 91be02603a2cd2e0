package asp

import (
	"slices"
	"sort"
	"unsafe"

	"cep2asp/internal/event"
	"cep2asp/internal/overload"
)

// JoinPredicate is the θ predicate of a join, evaluated over the constituent
// events of the left and right (partial) matches. The translator compiles
// it from the pattern's temporal-order constraints, the window-span check,
// and any pushed-down multi-alias predicates.
type JoinPredicate func(left, right []event.Event) bool

// WindowJoinSpec configures a sliding window join: the direct mapping of
// conjunction (Cartesian product), sequence (θ join) and iteration (θ self
// join) under explicit windowing (Table 1).
//
// Window k holds the records with time in [k·Slide, k·Slide+Window) (Eqs.
// 4-5); when the watermark passes its end, its left and right contents
// are cross-joined under the predicate. A match in several overlapping
// windows is emitted once per window — the duplicate behaviour inherent
// to this mapping (§3.1.4, second impact) that optimization O1 removes.
// Each record pair is still joined only once, by its first window; the
// match is stored on the pane of the earlier record, and later windows
// covering that pane emit the same *event.Match again.
type WindowJoinSpec struct {
	Window, Slide event.Time
	// LeftKey/RightKey group events within an instance; nil means one
	// global group (the non-partitionable case of §5.1.2).
	LeftKey, RightKey KeyFn
	// Predicate filters joined pairs; nil joins everything (pure Cartesian
	// product). It is shared across parallel instances and must be
	// stateless; predicates with internal scratch must use NewPredicate.
	Predicate JoinPredicate
	// NewPredicate, when set, builds one predicate per operator instance
	// and takes precedence over Predicate.
	NewPredicate func() JoinPredicate
	// DedupEmits emits each pair once, on the firing that joins it,
	// instead of once per covering window. Chained joins of a decomposed
	// nested pattern multiply duplicates by ~Window/Slide per stage —
	// exponential in the chain depth — so the translator dedups every
	// intermediate join and leaves only the final stage's duplicates
	// observable (§3.1.4).
	DedupEmits bool
	// SelfJoin reports that one event can reach both inputs with no
	// temporal order between the sides (e.g. AND(A a, A b)), so distinct
	// pairs may share a constituent set. Such twins join on the same
	// firing, which under DedupEmits emits the set once.
	SelfJoin bool
}

// NewWindowJoin returns the operator factory for Stream.Connect2.
func NewWindowJoin(spec WindowJoinSpec) func(int) Operator {
	return func(int) Operator {
		j := &windowJoin{
			spec:     spec,
			pred:     spec.Predicate,
			keys:     [2]KeyFn{spec.LeftKey, spec.RightKey},
			state:    make(map[int64]*joinGroup),
			nextFire: event.MaxWatermark,
		}
		if spec.NewPredicate != nil {
			j.pred = spec.NewPredicate()
		}
		if spec.DedupEmits && spec.SelfJoin {
			j.twins = make(map[string]struct{})
		}
		return j
	}
}

// joinPane holds one key group's records of one pane, indexed by input
// port (0 left, 1 right). The first Done[side] records of a side have been
// joined; the rest are new. Exported fields form the gob snapshot.
type joinPane struct {
	Idx   event.Time
	Recs  [2][]Record
	Done  [2]int
	Pairs []*event.Match // stored pairs whose earlier record lies here
	cut   [2]int         // end of the new records the current firing joins
}

// joinGroup holds one key group's panes in ascending index order.
type joinGroup struct{ Panes []*joinPane }

type windowJoin struct {
	spec      WindowJoinSpec
	pred      JoinPredicate
	keys      [2]KeyFn // per input port
	state     map[int64]*joinGroup
	nextFire  event.Time // start of the earliest unfired window
	firing    event.Time // index of the window being fired
	recCount  int64      // records buffered across panes (mirrors AddState)
	pairCount int64      // pairs stored on panes (mirrors AddState)
	stateCap  int64      // SetStateBudget: store no pair beyond this many units
	twins     map[string]struct{}
	keyBuf    []byte
	// Shedding statistics: per-port arrival rates and the max event time.
	rate               [2]arrivalRate
	maxTS              event.Time
	scratchL, scratchR []event.Event
	freeEvs            [][]event.Event  // recycled match constituent buffers
	freeRecs           [][]Record       // recycled pane buffers
	freePairs          [][]*event.Match // recycled stored-pair buffers
}

// DropsLateRecords implements LateDropper: nextFire tracking and join-once
// bookkeeping hold only for records above the merged watermark, so the
// engine drops late data records at this operator's input.
func (j *windowJoin) DropsLateRecords() {}

// Hold implements WatermarkHolder: outputs carry their real (maximum
// constituent) event time, which lies anywhere inside the firing window, so
// the downstream watermark may only advance past windows that have fired.
// This is what keeps chained joins of a decomposed nested pattern (§4.2.2)
// working with windows of the original size W.
func (j *windowJoin) Hold() event.Time {
	if j.nextFire == event.MaxWatermark {
		return event.MaxWatermark
	}
	return j.nextFire - 1
}

func (j *windowJoin) OnRecord(port int, r Record, out *Collector) {
	var key int64
	if k := j.keys[port]; k != nil {
		key = k(r)
	}
	g := j.state[key]
	if g == nil {
		g = &joinGroup{}
		j.state[key] = g
	}
	p := g.pane(event.PaneIndex(r.TS, j.spec.Slide))
	if p.Recs[port] == nil {
		p.Recs[port] = takeSlice(&j.freeRecs)
	}
	p.Recs[port] = append(p.Recs[port], r)
	j.rate[port].observe(r.TS)
	if r.TS > j.maxTS {
		j.maxTS = r.TS
	}
	j.recCount++
	out.AddState(1)

	// Track the earliest window that could contain this record. The engine
	// drops late records at our input (DropsLateRecords), so the record's
	// time exceeds the merged input watermark and this can only move
	// nextFire below windows that have not fired yet.
	kLo, _ := event.WindowsOf(r.TS, j.spec.Window, j.spec.Slide)
	if ws := kLo * j.spec.Slide; ws < j.nextFire {
		j.nextFire = ws
	}
}

// pane returns the group's pane idx, inserting it in index order.
func (g *joinGroup) pane(idx event.Time) *joinPane {
	i := len(g.Panes)
	for i > 0 && g.Panes[i-1].Idx > idx {
		i--
	}
	if i > 0 && g.Panes[i-1].Idx == idx {
		return g.Panes[i-1]
	}
	p := &joinPane{Idx: idx}
	g.Panes = append(g.Panes, nil)
	copy(g.Panes[i+1:], g.Panes[i:])
	g.Panes[i] = p
	return p
}

func (j *windowJoin) OnWatermark(wm event.Time, out *Collector) {
	for j.nextFire <= wm-j.spec.Window+1 {
		// Skip ahead over empty windows: without buffered panes there is
		// nothing to fire (essential on the final MaxWatermark flush).
		pmin, ok := j.minPane()
		if !ok {
			j.nextFire = event.MaxWatermark
			return
		}
		// The first window overlapping pane pmin holds the pane's start.
		if k, _ := event.WindowsOf(pmin*j.spec.Slide, j.spec.Window, j.spec.Slide); k*j.spec.Slide > j.nextFire {
			j.nextFire = k * j.spec.Slide
			continue
		}
		j.fire(j.nextFire, out)
		j.nextFire += j.spec.Slide
	}
}

// minPane returns the smallest buffered pane index across all key groups.
func (j *windowJoin) minPane() (event.Time, bool) {
	min, ok := event.Time(0), false
	for _, g := range j.state {
		if idx := g.Panes[0].Idx; !ok || idx < min {
			min, ok = idx, true
		}
	}
	return min, ok
}

func (j *windowJoin) OnClose(*Collector) {}

// fire completes the window [ws, ws+Window) in every key group: it joins
// the pairs the window is the first to cover, emits its stored pairs at
// their true event time (safe under the watermark hold), and evicts the
// panes no later window covers.
func (j *windowJoin) fire(ws event.Time, out *Collector) {
	bound := ws + j.spec.Window - 1 // every record at or below has arrived
	hi := event.PaneIndex(bound, j.spec.Slide)
	j.firing = event.PaneIndex(ws, j.spec.Slide)
	units := j.recCount + j.pairCount
	for key, g := range j.state {
		n := 0
		for n < len(g.Panes) && g.Panes[n].Idx <= hi {
			n++
		}
		j.joinNew(g.Panes[:n], bound, out)
		for _, p := range g.Panes[:n] {
			for _, m := range p.Pairs {
				out.EmitMatch(m.TsE, m)
			}
		}
		for len(g.Panes) > 0 && g.Panes[0].Idx <= j.firing {
			j.release(g.Panes[0])
			g.Panes[0] = nil
			g.Panes = g.Panes[1:]
		}
		if len(g.Panes) == 0 {
			delete(j.state, key)
		}
	}
	clear(j.twins)
	out.AddState(j.recCount + j.pairCount - units)
}

// joinNew joins the pairs of one key group's live panes that are at or
// below bound and not joined before: new lefts against every right, then
// earlier lefts against new rights. Live panes start at the firing's
// window, so it is the first window covering each such pair.
func (j *windowJoin) joinNew(live []*joinPane, bound event.Time, out *Collector) {
	for _, p := range live {
		for side, recs := range p.Recs {
			// Move the new records at or below bound to the front; only a
			// pane straddling the window end has records beyond it.
			cut := p.Done[side]
			for i := cut; i < len(recs); i++ {
				if recs[i].TS <= bound {
					recs[cut], recs[i] = recs[i], recs[cut]
					cut++
				}
			}
			p.cut[side] = cut
		}
	}
	for _, lp := range live {
		for _, l := range lp.Recs[0][lp.Done[0]:lp.cut[0]] {
			j.scratchL = l.Constituents(j.scratchL[:0])
			for _, rp := range live {
				for _, r := range rp.Recs[1][:rp.cut[1]] {
					j.scratchR = r.Constituents(j.scratchR[:0])
					j.pair(l, r, lp, rp, out)
				}
			}
		}
	}
	for _, rp := range live {
		for _, r := range rp.Recs[1][rp.Done[1]:rp.cut[1]] {
			j.scratchR = r.Constituents(j.scratchR[:0])
			for _, lp := range live {
				for _, l := range lp.Recs[0][:lp.Done[0]] {
					j.scratchL = l.Constituents(j.scratchL[:0])
					j.pair(l, r, lp, rp, out)
				}
			}
		}
	}
	for _, p := range live {
		p.Done = p.cut
	}
}

// pair joins one record pair whose constituents are in scratchL/scratchR:
// a match is emitted now (DedupEmits) or stored on the earlier record's
// pane for every firing that covers the pair.
func (j *windowJoin) pair(l, r Record, lp, rp *joinPane, out *Collector) {
	if j.pred != nil && !j.pred(j.scratchL, j.scratchR) {
		return
	}
	// Only twin-rejected buffers are recycled: downstream shares matches.
	evs := slices.Grow(takeSlice(&j.freeEvs), len(j.scratchL)+len(j.scratchR))
	evs = append(evs, j.scratchL...)
	evs = append(evs, j.scratchR...)
	m := event.WrapMatch(evs)
	if !j.spec.DedupEmits {
		home := lp
		if r.TS < l.TS {
			home = rp
		}
		if j.stateCap <= 0 || j.recCount+j.pairCount < j.stateCap {
			if home.Pairs == nil {
				home.Pairs = takeSlice(&j.freePairs)
			}
			home.Pairs = append(home.Pairs, m)
			j.pairCount++
			return
		}
		// Over the state cap: emit for this window only, charging the
		// later windows' duplicates as lost.
		out.AddLostMatches(float64(home.Idx - j.firing))
	}
	if j.twins != nil {
		j.keyBuf = m.AppendKey(j.keyBuf[:0])
		if _, dup := j.twins[string(j.keyBuf)]; dup {
			stashSlice(&j.freeEvs, evs)
			return
		}
		j.twins[string(j.keyBuf)] = struct{}{}
	}
	out.EmitMatch(m.TsE, m)
}

// SetStateBudget implements SelfShedder: one firing can store more pairs
// than the engine's post-watermark check bounds, so at the cap a pair is
// emitted for its first window unstored, losing its later duplicates.
func (j *windowJoin) SetStateBudget(max, _ int64, _ func(int64)) { j.stateCap = max }

// release recycles an evicted or shed pane's buffers and returns the units
// it held; the caller reports them through AddState.
func (j *windowJoin) release(p *joinPane) int64 {
	recs, pairs := int64(len(p.Recs[0])+len(p.Recs[1])), int64(len(p.Pairs))
	j.recCount -= recs
	j.pairCount -= pairs
	stashSlice(&j.freeRecs, p.Recs[0])
	stashSlice(&j.freeRecs, p.Recs[1])
	clear(p.Pairs) // the matches live on downstream; drop our references
	stashSlice(&j.freePairs, p.Pairs)
	return recs + pairs
}

// windowJoinState is the gob snapshot DTO of a windowJoin instance.
type windowJoinState struct {
	Format   int // snapshotFormat
	Groups   map[int64]*joinGroup
	NextFire event.Time
}

// SnapshotState implements Snapshotter.
func (j *windowJoin) SnapshotState() ([]byte, error) {
	return gobEncode(windowJoinState{Format: snapshotFormat, Groups: j.state, NextFire: j.nextFire})
}

// RestoreState implements Snapshotter.
func (j *windowJoin) RestoreState(data []byte) error {
	var st windowJoinState
	if err := gobDecodeFormat("window join", data, &st, &st.Format); err != nil {
		return err
	}
	j.state, j.nextFire = make(map[int64]*joinGroup, len(st.Groups)), st.NextFire
	j.recCount, j.pairCount = 0, 0
	for key, g := range st.Groups {
		j.state[key] = g
		for _, p := range g.Panes {
			j.recCount += int64(len(p.Recs[0]) + len(p.Recs[1]))
			j.pairCount += int64(len(p.Pairs))
		}
	}
	return nil
}

// BufferedState implements StateCounter: buffered records plus stored
// pairs, the units OnRecord, fire and shedding account through AddState.
func (j *windowJoin) BufferedState() int64 { return j.recCount + j.pairCount }

// wjPairBytes approximates one stored pair: pointer, match and two events.
const wjPairBytes = int64(unsafe.Sizeof(uintptr(0)) + unsafe.Sizeof(event.Match{}) + 2*unsafe.Sizeof(event.Event{}))

// StateStats implements StateAccountant: O(1) from the counters.
func (j *windowJoin) StateStats() StateStats {
	return StateStats{
		Records: j.recCount + j.pairCount,
		Bytes:   j.recCount*int64(unsafe.Sizeof(Record{})) + j.pairCount*wjPairBytes,
	}
}

// timeLeft is the event time left until the end of the latest window
// covering pane idx: the last partner timestamp its records can join.
func (j *windowJoin) timeLeft(idx event.Time) int64 {
	return clampTimeLeft(idx*j.spec.Slide + j.spec.Window - 1 - j.maxTS)
}

// groupCounts sums a key group's buffered records per port.
func groupCounts(g *joinGroup) (live [2]int) {
	for _, p := range g.Panes {
		live[0] += len(p.Recs[0])
		live[1] += len(p.Recs[1])
	}
	return live
}

// paneLoss bounds the matches dropped with pane p of key group g: each
// dropped record could have joined every live opposite-side record of
// its group (p's own included) plus the expected opposite-side arrivals
// before the pane's last window ends, emitted once per covering window
// unless the stage dedups (§3.1.4). That covers p's stored pairs too: a
// stored pair's partner is either live or was charged when its own pane
// was shed. Over-counting is safe — it only lowers the reported recall
// estimate; under-counting is not.
func (j *windowJoin) paneLoss(g *joinGroup, p *joinPane) float64 {
	live := groupCounts(g)
	var loss float64
	for side := range p.Recs {
		opp := 1 - side
		loss += float64(len(p.Recs[side])) * partnerBound(live[opp], j.rate[opp].perTimeUnit(), j.timeLeft(p.Idx))
	}
	if j.spec.DedupEmits {
		return loss
	}
	return loss * float64((j.spec.Window+j.spec.Slide-1)/j.spec.Slide)
}

// shedPane drops pane i of a key group with its records and stored pairs,
// charging its lost-match bound, and returns the units dropped. Dropping
// state only removes records and pairs from unfired windows, so the shed
// run's output stays a subset of the unshed run's.
func (j *windowJoin) shedPane(key int64, g *joinGroup, i int, lost *float64, out *Collector) int64 {
	*lost += j.paneLoss(g, g.Panes[i])
	n := j.release(g.Panes[i])
	out.AddState(-n)
	g.Panes = append(g.Panes[:i], g.Panes[i+1:]...)
	if len(g.Panes) == 0 {
		delete(j.state, key)
	}
	return n
}

// ShedOldest implements Shedder: whole oldest panes are dropped first
// (across every key group) until at most target accounted units remain.
// Every dropped pane charges its lost-match bound so the recall estimate
// stays a sound lower bound.
func (j *windowJoin) ShedOldest(target int64, out *Collector) int64 {
	var dropped int64
	var lost float64
	for j.recCount+j.pairCount > target {
		pmin, ok := j.minPane()
		if !ok {
			break
		}
		for key, g := range j.state {
			if g.Panes[0].Idx == pmin {
				dropped += j.shedPane(key, g, 0, &lost, out)
			}
		}
	}
	out.AddLostMatches(lost)
	return dropped
}

// ShedLowestValue implements ValueShedder: panes are dropped in order of
// ascending completion value instead of age. A pane whose key group
// holds records on both sides scores 1; in a one-sided group it scores
// the Poisson probability that the missing side arrives before the
// pane's last covering window closes. Ties break oldest-pane-first, as
// in ShedOldest. Scores are computed once per invocation (shedding is
// rare; staleness within one sweep only reorders equally doomed panes).
func (j *windowJoin) ShedLowestValue(target int64, out *Collector) int64 {
	type wjVictim struct {
		key   int64
		pane  *joinPane
		score float64
	}
	var victims []wjVictim
	for key, g := range j.state {
		live := groupCounts(g)
		for _, p := range g.Panes {
			score := 1.0
			for side := range live { // a one-sided group waits on its empty port
				if live[side] == 0 {
					score = overload.CompletionValue(1, j.timeLeft(p.Idx), int64(j.spec.Window), j.rate[side].perTimeUnit())
					break
				}
			}
			victims = append(victims, wjVictim{key, p, score})
		}
	}
	sort.Slice(victims, func(a, b int) bool {
		if victims[a].score != victims[b].score {
			return victims[a].score < victims[b].score
		}
		return victims[a].pane.Idx < victims[b].pane.Idx
	})
	var dropped int64
	var lost float64
	for _, v := range victims {
		if j.recCount+j.pairCount <= target {
			break
		}
		if g := j.state[v.key]; g != nil {
			for i, p := range g.Panes {
				if p == v.pane {
					dropped += j.shedPane(v.key, g, i, &lost, out)
					break
				}
			}
		}
	}
	out.AddLostMatches(lost)
	return dropped
}
