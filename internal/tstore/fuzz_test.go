package tstore

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"tahoedyn/internal/obs"
)

// FuzzNewStore throws arbitrary bytes at the chunked-store reader.
// Whatever the input — truncated files, flipped header fields, corrupt
// footers, hostile varints in the chunk index — NewStore must either
// return an error or yield a store whose full Scan completes without
// panicking. Allocation is bounded by the validated counts, so hostile
// lengths must not OOM either.
func FuzzNewStore(f *testing.F) {
	// Seed with a small real store so the fuzzer starts from a valid
	// file and mutates inward past the CRC and bounds checks.
	locs, events := synthTrace(2000, 3, 2, 1)
	var buf bytes.Buffer
	w := NewWriter(&buf, WriterOptions{ChunkEvents: 256})
	if err := w.Begin(); err != nil {
		f.Fatal(err)
	}
	if err := w.Events(locs, events); err != nil {
		f.Fatal(err)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	b := buf.Bytes()
	f.Add(b)
	for _, cut := range []int{0, 4, 11, 12, 40, len(b) / 2, len(b) - 13, len(b) - 1} {
		f.Add(b[:cut])
	}
	// Empty store (header only, footer for zero chunks).
	var empty bytes.Buffer
	we := NewWriter(&empty, WriterOptions{})
	we.Begin()
	we.Close()
	f.Add(empty.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := NewStore(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		// Opened: scanning every chunk must not panic; errors are fine
		// (chunk payloads are not covered by the footer CRC).
		n := uint64(0)
		s.Scan(Query{}, func(ev *obs.Event) error {
			n++
			return nil
		})
		if n > s.TotalEvents() {
			t.Fatalf("scan yielded %d events, store claims %d", n, s.TotalEvents())
		}
	})
}

// FuzzChunkProjection checks the column-projected chunk decode against
// the full one. For an arbitrary payload and every column mask, the
// projected decode must fail exactly when the full decode does; when
// both succeed, every field the mask asks for must equal the full
// decode's, and an unrequested time column may be skipped only when no
// time is negative (the zero Query's lower bound).
func FuzzChunkProjection(f *testing.F) {
	locs, events := synthTrace(600, 3, 3, 4)
	for _, chunkN := range []int{1, 7, 64, 600} {
		var buf bytes.Buffer
		w := NewWriter(&buf, WriterOptions{ChunkEvents: chunkN})
		w.Begin()
		w.Events(locs, events)
		w.Close()
		s, err := NewStore(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
		if err != nil {
			f.Fatal(err)
		}
		for i, c := range s.Chunks() {
			if i == 3 {
				break
			}
			f.Add(buf.Bytes()[c.Offset+4:c.Offset+4+c.Size], uint8(len(locs)))
		}
	}
	f.Add([]byte{}, uint8(0))

	f.Fuzz(func(t *testing.T, payload []byte, nLocs uint8) {
		// The index's count is whatever the payload claims, so the
		// decoders get past the count check and into the columns.
		count := 1
		if v, n := binary.Uvarint(payload); n > 0 && v <= uint64(len(payload)) {
			count = int(v)
		}
		var full, proj chunkDecoder
		want, wantErr := full.decode(payload, int(nLocs), count, colAll)
		for cols := colMask(0); cols <= colAll; cols++ {
			got, err := proj.decode(payload, int(nLocs), count, cols)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("cols %#x: projected error %v, full error %v", cols, err, wantErr)
			}
			if err != nil {
				continue
			}
			if len(got) != len(want) {
				t.Fatalf("cols %#x: %d events, full decode %d", cols, len(got), len(want))
			}
			timed := proj.timed
			if cols&colT != 0 && !timed {
				t.Fatalf("cols %#x: requested times not reported as set", cols)
			}
			for i := range want {
				g, w := &got[i], &want[i]
				if !timed && w.T < 0 {
					t.Fatalf("cols %#x: time column skipped but event %d has T=%v", cols, i, w.T)
				}
				if timed && g.T != w.T ||
					cols&colType != 0 && g.Type != w.Type ||
					cols&colKind != 0 && g.Kind != w.Kind ||
					cols&colLoc != 0 && g.Loc != w.Loc ||
					cols&colConn != 0 && g.Conn != w.Conn ||
					cols&colSeq != 0 && g.Seq != w.Seq ||
					cols&colSize != 0 && g.Size != w.Size ||
					cols&colID != 0 && g.ID != w.ID ||
					cols&colVal != 0 && math.Float64bits(g.Val) != math.Float64bits(w.Val) {
					t.Fatalf("cols %#x event %d: projected %+v, full %+v", cols, i, *g, *w)
				}
			}
		}
	})
}
