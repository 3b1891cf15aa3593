package tstore

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"tahoedyn/internal/obs"
)

// synthTrace builds a deterministic, invariant-clean event stream
// modeling nPorts ports fed round-robin by nConns connections: every
// packet is enqueued, (maybe) sits, then transmits, with occasional
// arrival drops and cwnd/timeout value events sprinkled in.
func synthTrace(n, nPorts, nConns int, seed int64) ([]string, []obs.Event) {
	locs := make([]string, nPorts)
	for i := range locs {
		locs[i] = "port" + string(rune('A'+i))
	}
	rng := rand.New(rand.NewSource(seed))
	type pq struct {
		ids  []uint64
		qlen int
	}
	ports := make([]pq, nPorts)
	events := make([]obs.Event, 0, n)
	t := time.Duration(0)
	var nextID uint64 = 1
	for len(events) < n {
		t += time.Duration(rng.Intn(1000)) * time.Microsecond
		loc := rng.Intn(nPorts)
		conn := int32(1 + rng.Intn(nConns))
		p := &ports[loc]
		switch k := rng.Intn(10); {
		case k < 4: // arrival
			if p.qlen >= 8 { // full: arrival drop, queue unchanged
				events = append(events, obs.Event{T: t, Type: obs.Drop, Loc: obs.Loc(loc),
					Conn: conn, ID: nextID, Seq: int32(nextID), Size: 1000, Val: float64(p.qlen)})
			} else {
				p.ids = append(p.ids, nextID)
				p.qlen++
				events = append(events, obs.Event{T: t, Type: obs.Enqueue, Loc: obs.Loc(loc),
					Conn: conn, ID: nextID, Seq: int32(nextID), Size: 1000, Val: float64(p.qlen)})
			}
			nextID++
		case k < 8: // departure
			if p.qlen == 0 {
				continue
			}
			id := p.ids[0]
			events = append(events, obs.Event{T: t, Type: obs.Dequeue, Loc: obs.Loc(loc),
				Conn: conn, ID: id, Seq: int32(id), Size: 1000, Val: float64(p.qlen)})
			p.ids = p.ids[1:]
			p.qlen--
			events = append(events, obs.Event{T: t, Type: obs.Transmit, Loc: obs.Loc(loc),
				Conn: conn, ID: id, Seq: int32(id), Size: 1000, Val: float64(p.qlen)})
		case k < 9:
			events = append(events, obs.Event{T: t, Type: obs.CwndChange, Conn: conn,
				Val: float64(1 + rng.Intn(32))})
		default:
			events = append(events, obs.Event{T: t, Type: obs.Deliver, Loc: obs.Loc(loc),
				Conn: conn, ID: uint64(rng.Intn(100)), Size: 1000, Val: 0.5 * float64(rng.Intn(7))})
		}
	}
	return locs, events[:n]
}

// buildStore writes events through a Writer into memory and opens the
// result as a Store.
func buildStore(t *testing.T, locs []string, events []obs.Event, chunkN int) (*Store, []byte) {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, WriterOptions{ChunkEvents: chunkN})
	if err := w.Begin(); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	// Split into batches to exercise the batch path.
	for off := 0; off < len(events); off += 1000 {
		end := off + 1000
		if end > len(events) {
			end = len(events)
		}
		if err := w.Events(locs, events[off:end]); err != nil {
			t.Fatalf("Events: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	b := buf.Bytes()
	s, err := NewStore(bytes.NewReader(b), int64(len(b)))
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	return s, b
}

func TestRoundTrip(t *testing.T) {
	locs, events := synthTrace(10000, 4, 8, 1)
	s, raw := buildStore(t, locs, events, 512)
	if got := s.TotalEvents(); got != uint64(len(events)) {
		t.Fatalf("TotalEvents = %d, want %d", got, len(events))
	}
	if len(s.Chunks()) < len(events)/512 {
		t.Fatalf("too few chunks: %d", len(s.Chunks()))
	}
	var got []obs.Event
	if err := s.Scan(Query{}, func(ev *obs.Event) error {
		got = append(got, *ev)
		return nil
	}); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if len(got) != len(events) {
		t.Fatalf("scanned %d events, want %d", len(got), len(events))
	}
	storeLocs := s.Locs()
	for i := range got {
		want := events[i]
		g := got[i]
		// The store re-interns locations; compare by name.
		if storeLocs[g.Loc] != locs[want.Loc] {
			t.Fatalf("event %d: loc %q, want %q", i, storeLocs[g.Loc], locs[want.Loc])
		}
		g.Loc, want.Loc = 0, 0
		if g != want {
			t.Fatalf("event %d: got %+v, want %+v", i, g, want)
		}
	}
	// Compression sanity: the store should be well below 40 B/event raw.
	if raw := float64(len(raw)) / float64(len(events)); raw > 25 {
		t.Errorf("store spends %.1f bytes/event; expected columnar encoding below 25", raw)
	}
}

func TestEmptyStore(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, WriterOptions{})
	if err := w.Close(); err != nil { // Close without Begin
		t.Fatalf("Close: %v", err)
	}
	s, err := NewStore(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	if s.TotalEvents() != 0 || len(s.Chunks()) != 0 {
		t.Fatalf("empty store has %d events, %d chunks", s.TotalEvents(), len(s.Chunks()))
	}
	n := 0
	if err := s.Scan(Query{}, func(*obs.Event) error { n++; return nil }); err != nil || n != 0 {
		t.Fatalf("scan of empty store: n=%d err=%v", n, err)
	}
}

// bruteMatch filters events the slow way for cross-checking.
func bruteMatch(locs []string, events []obs.Event, q Query) []obs.Event {
	locID := -1
	if q.Loc != "" {
		locID = -2
		for i, n := range locs {
			if n == q.Loc {
				locID = i
			}
		}
	}
	var out []obs.Event
	for _, ev := range events {
		if locID == -2 {
			break
		}
		if ev.T < q.From || (q.To > 0 && ev.T >= q.To) {
			continue
		}
		if locID >= 0 && int(ev.Loc) != locID {
			continue
		}
		if !q.Filter.Match(ev.Type, int(ev.Conn)) {
			continue
		}
		out = append(out, ev)
	}
	return out
}

func TestQueriesMatchBruteForce(t *testing.T) {
	locs, events := synthTrace(20000, 4, 8, 2)
	s, _ := buildStore(t, locs, events, 256)
	maxT := events[len(events)-1].T
	queries := []Query{
		{},
		{From: maxT / 4, To: maxT / 2},
		{Filter: obs.Filter{Types: 1 << obs.Drop}},
		{Filter: obs.Filter{Conn: 3}},
		{Loc: "portB"},
		{Loc: "missing-port"},
		{From: maxT / 3, To: 2 * maxT / 3, Filter: obs.Filter{Types: 1 << obs.Transmit, Conn: 2}, Loc: "portA"},
		{To: maxT / 8, Filter: obs.Filter{Types: 1<<obs.Enqueue | 1<<obs.Drop}},
	}
	for qi, q := range queries {
		want := bruteMatch(locs, events, q)
		var got []obs.Event
		skipped, err := s.ScanStats(q, func(ev *obs.Event) error {
			got = append(got, *ev)
			return nil
		})
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		if len(got) != len(want) {
			t.Fatalf("query %d: %d events, want %d", qi, len(got), len(want))
		}
		for i := range got {
			g, w := got[i], want[i]
			g.Loc, w.Loc = 0, 0 // loc ids re-interned; names checked in TestRoundTrip
			if g != w {
				t.Fatalf("query %d event %d: got %+v want %+v", qi, i, g, w)
			}
		}
		n, err := s.Count(q)
		if err != nil || n != uint64(len(want)) {
			t.Fatalf("query %d: Count = %d (err %v), want %d", qi, n, err, len(want))
		}
		// Time-bounded queries must actually skip chunks (conn/loc
		// ranges legitimately span every chunk of this mixed trace).
		if (q.From > 0 || q.To > 0) && skipped == 0 && len(s.Chunks()) > 4 {
			t.Errorf("query %d: time-bounded query skipped no chunks", qi)
		}
	}
}

func TestScanEarlyStop(t *testing.T) {
	locs, events := synthTrace(5000, 2, 4, 3)
	s, _ := buildStore(t, locs, events, 128)
	n := 0
	if err := s.Scan(Query{}, func(*obs.Event) error {
		n++
		if n == 100 {
			return ErrStop
		}
		return nil
	}); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if n != 100 {
		t.Fatalf("ErrStop after %d events, want 100", n)
	}
}

func TestWindowed(t *testing.T) {
	locs, events := synthTrace(20000, 3, 4, 4)
	src := &SliceSource{LocTable: locs, Events: events}
	s, _ := buildStore(t, locs, events, 512)

	q := Query{Filter: obs.Filter{Types: 1 << obs.Transmit}}
	width := 10 * time.Millisecond
	fromSlice, err := Windowed(src, q, WindowOptions{Width: width, ByLoc: true})
	if err != nil {
		t.Fatalf("Windowed(slice): %v", err)
	}
	fromStore, err := Windowed(s, q, WindowOptions{Width: width, ByLoc: true})
	if err != nil {
		t.Fatalf("Windowed(store): %v", err)
	}
	if len(fromStore) != len(fromSlice) {
		t.Fatalf("store has %d groups, slice %d", len(fromStore), len(fromSlice))
	}
	var totBytes int64
	for name, ws := range fromStore {
		if len(ws) != len(fromSlice[name]) {
			t.Fatalf("group %q: %d windows vs %d", name, len(ws), len(fromSlice[name]))
		}
		for i := range ws {
			if ws[i] != fromSlice[name][i] {
				t.Fatalf("group %q window %d: %+v vs %+v", name, i, ws[i], fromSlice[name][i])
			}
			if want := time.Duration(i) * width; ws[i].Start != want {
				t.Fatalf("group %q window %d starts at %v, want %v", name, i, ws[i].Start, want)
			}
			totBytes += ws[i].Bytes
		}
	}
	want := bruteMatch(locs, events, q)
	if totBytes != int64(len(want))*1000 {
		t.Fatalf("windowed bytes %d, want %d", totBytes, len(want)*1000)
	}
}

func TestQuantilesExact(t *testing.T) {
	// 1000 Deliver events with Val = 0, 0.5, ..., known distribution.
	locs, events := synthTrace(30000, 2, 4, 5)
	src := &SliceSource{LocTable: locs, Events: events}
	q := Query{Filter: obs.Filter{Types: 1 << obs.Enqueue}}
	vals := []float64{}
	for _, ev := range bruteMatch(locs, events, q) {
		vals = append(vals, ev.Val)
	}
	got, n, err := Quantiles(src, q, []float64{0.5, 0.9})
	if err != nil {
		t.Fatalf("Quantiles: %v", err)
	}
	if n != uint64(len(vals)) {
		t.Fatalf("n = %d, want %d", n, len(vals))
	}
	// Exact path: cross-check against a sort.
	sorted := append([]float64(nil), vals...)
	for i := range sorted {
		for j := i + 1; j < len(sorted); j++ {
			if sorted[j] < sorted[i] {
				sorted[i], sorted[j] = sorted[j], sorted[i]
			}
		}
	}
	for i, p := range []float64{0.5, 0.9} {
		r := int(p*float64(len(sorted))+0.9999999) - 1
		if got[i] != sorted[r] {
			t.Fatalf("p=%g: got %g, want %g", p, got[i], sorted[r])
		}
	}
}

func TestQuantilesStreaming(t *testing.T) {
	// Uniform values 1..100, enough samples to trip the P² switch: the
	// estimates must land near the true quantiles.
	n := maxExactSamples * 3
	events := make([]obs.Event, n)
	rng := rand.New(rand.NewSource(7))
	for i := range events {
		events[i] = obs.Event{T: time.Duration(i), Type: obs.Deliver, Val: float64(1 + rng.Intn(100))}
	}
	src := &SliceSource{LocTable: []string{"x"}, Events: events}
	got, cnt, err := Quantiles(src, Query{}, []float64{0.5, 0.99})
	if err != nil {
		t.Fatalf("Quantiles: %v", err)
	}
	if cnt != uint64(n) {
		t.Fatalf("count = %d, want %d", cnt, n)
	}
	if got[0] < 45 || got[0] > 55 {
		t.Errorf("p50 = %g, want ≈50", got[0])
	}
	if got[1] < 95 || got[1] > 100 {
		t.Errorf("p99 = %g, want ≈99", got[1])
	}
}

func TestInvariantCleanTrace(t *testing.T) {
	locs, events := synthTrace(20000, 4, 8, 6)
	src := &SliceSource{LocTable: locs, Events: events}
	n, vio, err := Check(src, CheckOptions{})
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if vio != nil {
		t.Fatalf("clean trace flagged: %v", vio)
	}
	if n != uint64(len(events)) {
		t.Fatalf("checked %d events, want %d", n, len(events))
	}
}

func TestInvariantViolations(t *testing.T) {
	locs, events := synthTrace(5000, 2, 4, 8)
	// Find an Enqueue event to corrupt.
	enq := -1
	for i, ev := range events {
		if ev.Type == obs.Enqueue && i > 100 {
			enq = i
			break
		}
	}
	if enq < 0 {
		t.Fatal("no enqueue event in synthetic trace")
	}
	cases := []struct {
		name   string
		rule   string
		mutate func([]obs.Event) int // returns index of offending event
		opts   CheckOptions
	}{
		{
			name: "conservation-bad-qlen",
			rule: "conservation",
			mutate: func(evs []obs.Event) int {
				evs[enq].Val += 3
				return enq
			},
		},
		{
			name: "causality-phantom-transmit",
			rule: "causality",
			mutate: func(evs []obs.Event) int {
				evs[enq].Type = obs.Transmit
				evs[enq].ID = 1 << 60 // never enqueued
				return enq
			},
		},
		{
			name: "monotonic-time",
			rule: "monotonic-time",
			mutate: func(evs []obs.Event) int {
				evs[enq].T = evs[enq-1].T - time.Second
				return enq
			},
			opts: CheckOptions{NoConservation: true},
		},
		{
			name: "cwnd-below-one",
			rule: "cwnd-bounds",
			mutate: func(evs []obs.Event) int {
				evs[enq] = obs.Event{T: evs[enq].T, Type: obs.CwndChange, Conn: 1, Val: 0}
				return enq
			},
			opts: CheckOptions{NoConservation: true},
		},
		{
			name: "cwnd-above-max",
			rule: "cwnd-bounds",
			mutate: func(evs []obs.Event) int {
				evs[enq] = obs.Event{T: evs[enq].T, Type: obs.CwndChange, Conn: 1, Val: 1e6}
				return enq
			},
			opts: CheckOptions{NoConservation: true, MaxCwnd: map[int]float64{1: 64}},
		},
		{
			name: "timeout-not-increasing",
			rule: "timeout-monotonic",
			mutate: func(evs []obs.Event) int {
				evs[enq-1] = obs.Event{T: evs[enq-1].T, Type: obs.Timeout, Conn: 2, Val: 5}
				evs[enq] = obs.Event{T: evs[enq].T, Type: obs.Timeout, Conn: 2, Val: 5}
				return enq
			},
			opts: CheckOptions{NoConservation: true},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			evs := append([]obs.Event(nil), events...)
			wantIdx := tc.mutate(evs)
			src := &SliceSource{LocTable: locs, Events: evs}
			_, vio, err := Check(src, tc.opts)
			if err != nil {
				t.Fatalf("Check: %v", err)
			}
			if vio == nil {
				t.Fatal("corruption not detected")
			}
			if vio.Rule != tc.rule {
				t.Fatalf("flagged rule %q, want %q (%v)", vio.Rule, tc.rule, vio)
			}
			if vio.Index != uint64(wantIdx) {
				t.Fatalf("flagged event %d, want %d (%v)", vio.Index, wantIdx, vio)
			}
			if vio.Error() == "" {
				t.Fatal("empty violation message")
			}
		})
	}
}

func TestOnlineCheckerForwardsAndFlags(t *testing.T) {
	locs, events := synthTrace(3000, 2, 4, 9)
	events[1500].Val += 7 // corrupt one queue length
	mem := obs.NewMemorySink()
	c := NewChecker(mem, CheckOptions{})
	if err := c.Begin(); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	err := c.Events(locs, events)
	if err == nil {
		t.Fatal("checker did not report the violation")
	}
	vio, ok := err.(*Violation)
	if !ok {
		t.Fatalf("error is %T, want *Violation", err)
	}
	if c.Violation() != vio {
		t.Fatal("Violation() disagrees with returned error")
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// The batch was forwarded before checking: the inner sink has it all.
	if got := mem.Len(); got != len(events) {
		t.Fatalf("inner sink holds %d events, want %d", got, len(events))
	}
}

func TestStoreRejectsCorruption(t *testing.T) {
	locs, events := synthTrace(4000, 2, 4, 10)
	pristine, raw := buildStore(t, locs, events, 256)

	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{0, 1, headerSize - 1, headerSize, len(raw) / 2, len(raw) - 1} {
			if _, err := NewStore(bytes.NewReader(raw[:cut]), int64(cut)); err == nil {
				t.Errorf("store truncated to %d bytes accepted", cut)
			}
		}
	})
	t.Run("bad-magic", func(t *testing.T) {
		b := append([]byte(nil), raw...)
		b[0] = 'X'
		if _, err := NewStore(bytes.NewReader(b), int64(len(b))); err == nil {
			t.Error("bad header magic accepted")
		}
	})
	t.Run("footer-bitflip", func(t *testing.T) {
		// Flip a byte inside the footer: the CRC must catch it.
		b := append([]byte(nil), raw...)
		b[len(b)-trailerSize-3] ^= 0xff
		if _, err := NewStore(bytes.NewReader(b), int64(len(b))); err == nil {
			t.Error("footer corruption accepted")
		}
	})
	t.Run("chunk-bitflip", func(t *testing.T) {
		// Flip bytes inside chunk payloads. The footer is intact, so the
		// store opens; a flip may or may not leave a decodable chunk.
		// Either way each projected query must agree with a full Scan
		// over the same chunks: an error exactly when the Scan errors,
		// otherwise the answer a fold over the Scan's events gives.
		type flip struct {
			off  int
			mask byte
		}
		var flips []flip
		for off := headerSize + 4; off < len(raw)/2; off += 97 {
			flips = append(flips, flip{off, 0xa5})
		}
		// Each chunk's first time delta follows its two-byte count;
		// flipping its low bit turns it negative, and with it every time
		// in the chunk.
		for _, c := range pristine.Chunks() {
			flips = append(flips, flip{int(c.Offset) + 4 + 2, 0x01})
		}
		flipped, failed, negative := 0, 0, 0
		for _, f := range flips {
			b := append([]byte(nil), raw...)
			b[f.off] ^= f.mask
			s, err := NewStore(bytes.NewReader(b), int64(len(b)))
			if err != nil {
				t.Fatalf("flip at %d: footer rejected: %v", f.off, err)
			}
			flipped++
			if checkProjectedQueries(t, s, f.off) {
				failed++
			}
			s.Scan(Query{From: math.MinInt64}, func(ev *obs.Event) error {
				if ev.T < 0 {
					negative++
					return ErrStop
				}
				return nil
			})
		}
		// The flips must exercise both outcomes, and the decode of
		// negative times that the zero Query's lower bound excludes.
		if failed == 0 || failed == flipped || negative == 0 {
			t.Fatalf("%d flipped stores: %d failed to scan, %d held negative times", flipped, failed, negative)
		}
	})
}

// checkProjectedQueries runs typed Count, Windowed and Quantiles over s
// and checks each against a full Scan of the same query and a fold over
// its events, reporting whether the Scan failed.
func checkProjectedQueries(t *testing.T, s *Store, flip int) (scanFailed bool) {
	t.Helper()
	scan := func(q Query) ([]obs.Event, error) {
		var evs []obs.Event
		err := s.Scan(q, func(ev *obs.Event) error {
			evs = append(evs, *ev)
			return nil
		})
		return evs, err
	}
	agree := func(what string, err, scanErr error) bool {
		t.Helper()
		if (err == nil) != (scanErr == nil) {
			t.Fatalf("flip at %d: %s error %v, full Scan error %v", flip, what, err, scanErr)
		}
		return err == nil
	}

	for _, q := range []Query{
		{Filter: obs.Filter{Types: 1 << obs.Drop}},
		{Filter: obs.Filter{Types: 1<<obs.Transmit | 1<<obs.Enqueue, Conn: 2}, Loc: "portB"},
		{From: 100 * time.Millisecond, Filter: obs.Filter{Types: 1 << obs.Dequeue}},
	} {
		for i := range s.index {
			if s.index[i].covered(q, 1) {
				t.Fatalf("query %+v covers chunk %d: Count would not read it", q, i)
			}
		}
		evs, scanErr := scan(q)
		n, err := s.Count(q)
		if agree("Count", err, scanErr) && n != uint64(len(evs)) {
			t.Fatalf("flip at %d: Count(%+v) = %d, full Scan holds %d", flip, q, n, len(evs))
		}
		scanFailed = scanFailed || scanErr != nil
	}

	q := Query{Filter: obs.Filter{Types: 1 << obs.Transmit}}
	o := WindowOptions{Width: 50 * time.Millisecond, ByLoc: true}
	evs, scanErr := scan(q)
	got, err := Windowed(s, q, o)
	if agree("Windowed", err, scanErr) {
		want, _ := Windowed(&SliceSource{LocTable: s.Locs(), Events: evs}, q, o)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("flip at %d: projected Windowed differs from the fold over Scan", flip)
		}
	}

	q = Query{Filter: obs.Filter{Types: 1 << obs.Enqueue}}
	probs := []float64{0.1, 0.5, 0.99}
	evs, scanErr = scan(q)
	gotQ, gotN, err := Quantiles(s, q, probs)
	if agree("Quantiles", err, scanErr) {
		wantQ, wantN, _ := Quantiles(&SliceSource{LocTable: s.Locs(), Events: evs}, q, probs)
		if gotN != wantN || !reflect.DeepEqual(gotQ, wantQ) {
			t.Fatalf("flip at %d: Quantiles %v (n=%d), fold over Scan %v (n=%d)", flip, gotQ, gotN, wantQ, wantN)
		}
	}
	return scanFailed || scanErr != nil
}

func TestWriterLocReinterning(t *testing.T) {
	// Two "runs" with different location tables must merge into one
	// consistent store table.
	var buf bytes.Buffer
	w := NewWriter(&buf, WriterOptions{ChunkEvents: 4})
	if err := w.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := w.Events([]string{"a", "b"}, []obs.Event{
		{T: 1, Type: obs.Deliver, Loc: 0},
		{T: 2, Type: obs.Deliver, Loc: 1},
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Events([]string{"b", "c"}, []obs.Event{
		{T: 3, Type: obs.Deliver, Loc: 0},
		{T: 4, Type: obs.Deliver, Loc: 1},
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := NewStore(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	if err := s.Scan(Query{}, func(ev *obs.Event) error {
		names = append(names, s.Locs()[ev.Loc])
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "b", "c"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("event %d at %q, want %q (all: %v)", i, names[i], want[i], names)
		}
	}
	if n, err := Count(s, Query{Loc: "b"}); err != nil || n != 2 {
		t.Fatalf("Count(loc=b) = %d, %v; want 2", n, err)
	}
}

// craftStore wraps one hand-made chunk payload in a valid store whose
// index entry is info (offset and size filled in), with one location.
func craftStore(t *testing.T, payload []byte, info ChunkInfo) *Store {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, WriterOptions{})
	if err := w.Begin(); err != nil {
		t.Fatal(err)
	}
	w.intern("x")
	info.Offset, info.Size = w.off, int64(len(payload))
	var lenw [4]byte
	binary.LittleEndian.PutUint32(lenw[:], uint32(len(payload)))
	w.write(lenw[:])
	w.write(payload)
	w.index = append(w.index, info)
	w.total = uint64(info.Count)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := NewStore(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	return s
}

// A corrupt chunk may claim up to one event per payload byte. The
// decoder must refuse it — against the index count and against the
// nine bytes an event needs at least — before sizing its event buffer,
// which would otherwise cost 40 B of heap per payload byte.
func TestHostileChunkCountIsRejectedBeforeAllocating(t *testing.T) {
	const size = 1 << 20
	payload := make([]byte, size) // zero bytes: valid one-byte varints
	claim := size / 2
	binary.PutUvarint(payload, uint64(claim))
	for _, count := range []int{claim, 1} {
		s := craftStore(t, payload, ChunkInfo{Count: count, MaxT: time.Hour, TypeMask: 1<<obs.NumTypes - 1})
		for name, query := range map[string]func() error{
			"Scan": func() error { return s.Scan(Query{}, func(*obs.Event) error { return nil }) },
			"Count": func() error {
				_, err := s.Count(Query{Filter: obs.Filter{Types: 1 << obs.Drop}})
				return err
			},
		} {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			err := query()
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("index count %d: %s accepted a chunk claiming %d events in %d bytes", count, name, claim, size)
			}
			// The payload buffer itself is the only large allocation.
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 2*size {
				t.Errorf("index count %d: %s allocated %d bytes before rejecting (%v)", count, name, alloc, err)
			}
		}
	}
}

// Projected queries skip the time column when the query has no time
// bounds, yet even the zero Query excludes negative times. A store that
// holds some — an offline ingest, say — must answer as the in-memory
// trace does.
func TestProjectedQueriesExcludeNegativeTimes(t *testing.T) {
	locs, events := synthTrace(3000, 3, 4, 12)
	for i := range events {
		if i%700 < 250 {
			events[i].T -= 2 * time.Second
		}
	}
	s, _ := buildStore(t, locs, events, 128)
	src := &SliceSource{LocTable: locs, Events: events}
	for _, typ := range []obs.Type{obs.Drop, obs.Transmit, obs.Enqueue} {
		q := Query{Filter: obs.Filter{Types: 1 << typ}}
		want := uint64(len(bruteMatch(locs, events, q)))
		if n, err := s.Count(q); err != nil || n != want {
			t.Fatalf("Count(%v) = %d, %v; want %d", typ, n, err, want)
		}
		gotQ, gotN, err := Quantiles(s, q, []float64{0.5, 0.9})
		if err != nil {
			t.Fatal(err)
		}
		wantQ, wantN, _ := Quantiles(src, q, []float64{0.5, 0.9})
		if gotN != wantN || !reflect.DeepEqual(gotQ, wantQ) {
			t.Fatalf("Quantiles(%v) = %v (n=%d), want %v (n=%d)", typ, gotQ, gotN, wantQ, wantN)
		}
	}
}

// Each scan holds its decode scratch alone, so one Store answers
// queries from several goroutines at once with the answers it gives
// one at a time.
func TestStoreConcurrentQueries(t *testing.T) {
	locs, events := synthTrace(20000, 4, 8, 13)
	s, _ := buildStore(t, locs, events, 512)
	q := Query{Filter: obs.Filter{Types: 1<<obs.Transmit | 1<<obs.Enqueue}}
	o := WindowOptions{Width: 10 * time.Millisecond, ByLoc: true}
	probs := []float64{0.5, 0.9}
	wantN, err := s.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	wantW, err := Windowed(s, q, o)
	if err != nil {
		t.Fatal(err)
	}
	wantQ, _, err := Quantiles(s, q, probs)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				if n, err := s.Count(q); err != nil || n != wantN {
					t.Errorf("Count = %d, %v; want %d", n, err, wantN)
				}
				if w, err := Windowed(s, q, o); err != nil || !reflect.DeepEqual(w, wantW) {
					t.Errorf("Windowed differs (err %v)", err)
				}
				if qs, _, err := Quantiles(s, q, probs); err != nil || !reflect.DeepEqual(qs, wantQ) {
					t.Errorf("Quantiles = %v, %v; want %v", qs, err, wantQ)
				}
			}
		}()
	}
	wg.Wait()
}
