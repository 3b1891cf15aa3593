// Package tstore is the out-of-core trace store: a columnar, chunked
// on-disk container for obs event streams, an index that lets queries
// skip chunks wholesale, a small streaming query layer (filter,
// project, windowed aggregate, percentile), and a streaming invariant
// engine (per-hop packet conservation, event-time monotonicity, cwnd
// bounds) that runs online during a simulation or offline over a
// stored trace.
//
// It exists because a billion-event run cannot hold its trace in RAM:
// the Writer plugs in as an obs.Sink, so events spill to disk while
// the simulation executes with memory bounded by one chunk, and the
// reader side never materializes more than one chunk either. The
// format ("TOBC") is the chunked, columnar sibling of the flat "TOBS"
// record stream in internal/obs: same event model, same versioning
// discipline, but laid out for selective scans instead of sequential
// replay.
//
// See DESIGN.md §14 for the chunk layout, the footer index, and the
// invariant semantics.
package tstore

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"slices"
	"sync"
	"time"

	"tahoedyn/internal/obs"
	"tahoedyn/internal/packet"
)

// The container format. A store file is
//
//	header | chunk* | footer | trailer
//
// header (12 bytes): "TOBC" magic, uint16 version, uint16 reserved
// (zero), uint32 target events per chunk.
//
// chunk: uint32 payload length, then the columnar payload (see
// encodeChunk).
//
// footer: the location table, the chunk index, and the total event
// count, all varint-encoded (see writeFooter).
//
// trailer (12 bytes): uint32 CRC-32 (IEEE) of the footer bytes, uint32
// footer length, "TOBF" magic. The reader finds the footer by seeking
// to the end, so a store streams to any io.Writer — no mid-file
// seeking — and a truncated or corrupted file is rejected up front.
const (
	storeMagic   = "TOBC"
	footerMagic  = "TOBF"
	storeVersion = 1

	headerSize  = 12
	trailerSize = 12

	// DefaultChunkEvents is the chunk granularity when
	// WriterOptions.ChunkEvents is zero: the unit of both the writer's
	// memory bound and the reader's skip resolution.
	DefaultChunkEvents = 1 << 16

	// maxChunkPayload bounds a declared chunk payload so a corrupted
	// length field cannot demand an absurd allocation.
	maxChunkPayload = 1 << 28
)

// ChunkInfo is one footer-index entry: where a chunk lives and the
// ranges a query consults to skip it without reading it.
type ChunkInfo struct {
	// Offset is the file position of the chunk's length word; Size is
	// the payload length in bytes.
	Offset int64
	Size   int64
	// Count is the number of events in the chunk.
	Count int
	// MinT and MaxT bound the chunk's event times (inclusive).
	MinT, MaxT time.Duration
	// TypeMask has bit 1<<t set for every event Type t present.
	TypeMask uint32
	// ConnLo and ConnHi bound the connection ids present.
	ConnLo, ConnHi int32
	// LocLo and LocHi bound the store-level location ids present.
	LocLo, LocHi uint16
}

// overlaps reports whether a chunk can contain events matched by q
// (with the query's Loc already resolved to a store id, or -1 for
// "any"). False means the whole chunk is skipped unread.
func (c *ChunkInfo) overlaps(q Query, locID int) bool {
	if q.To > 0 && c.MinT >= q.To {
		return false
	}
	if c.MaxT < q.From {
		return false
	}
	if q.Filter.Types != 0 && q.Filter.Types&c.TypeMask == 0 {
		return false
	}
	if q.Filter.Conn != 0 {
		if conn := int32(q.Filter.Conn); conn < c.ConnLo || conn > c.ConnHi {
			return false
		}
	}
	if locID >= 0 {
		if l := uint16(locID); l < c.LocLo || l > c.LocHi {
			return false
		}
	}
	return true
}

// covered reports whether every event in the chunk is matched by q:
// the Count fast path for index-only answers.
func (c *ChunkInfo) covered(q Query, locID int) bool {
	if q.From > c.MinT || (q.To > 0 && c.MaxT >= q.To) {
		return false
	}
	if q.Filter.Types != 0 && c.TypeMask&^q.Filter.Types != 0 {
		return false
	}
	if q.Filter.Conn != 0 && (c.ConnLo != c.ConnHi || c.ConnLo != int32(q.Filter.Conn)) {
		return false
	}
	if locID >= 0 && (c.LocLo != c.LocHi || c.LocLo != uint16(locID)) {
		return false
	}
	return true
}

// zigzag folds a signed value into an unsigned one with small absolute
// values staying small — the standard varint-friendly encoding.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag is the inverse of zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// decoder walks a byte slice with error-latching reads: every helper
// reports malformed input (truncation, overlong varints) through err
// instead of panicking, so the fuzz targets can hammer arbitrary bytes.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("tstore: truncated or overlong varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) varint() int64 { return unzigzag(d.uvarint()) }

func (d *decoder) bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.b) {
		d.fail("tstore: truncated field at offset %d (want %d bytes, have %d)", d.off, n, len(d.b)-d.off)
		return nil
	}
	s := d.b[d.off : d.off+n]
	d.off += n
	return s
}

// count reads an element count and sanity-bounds it against the bytes
// that remain, so corrupted counts cannot demand absurd allocations:
// every counted element costs at least one encoded byte.
func (d *decoder) count(what string) int {
	v := d.uvarint()
	if d.err != nil {
		return 0
	}
	if v > uint64(len(d.b)-d.off) {
		d.fail("tstore: %s count %d exceeds remaining payload (%d bytes)", what, v, len(d.b)-d.off)
		return 0
	}
	return int(v)
}

// valTag* select the value-column encoding: a chunk whose every Val is
// an exact small integer (queue lengths, window sizes, timeout counts —
// the common case) stores zigzag varints; anything else stores raw
// float64 bits.
const (
	valTagInt byte = 0
	valTagRaw byte = 1
)

// chunkEncoder is a Writer's encode scratch, reused from chunk to chunk.
type chunkEncoder struct {
	codes []uint32          // per event: its key's index in dict
	dict  []uint64          // the distinct values, in first-seen order
	order []uint32          // dict indices in ascending value order
	rank  []uint32          // dict index → position in ascending order (the code)
	index map[uint64]uint32 // key → its index in dict
}

// encodeChunk appends the columnar payload for events to buf and
// returns it along with the chunk's index entry. Events carry
// store-level location ids (the writer re-interns before staging).
func (e *chunkEncoder) encodeChunk(buf []byte, events []obs.Event) ([]byte, ChunkInfo) {
	info := ChunkInfo{
		Count:  len(events),
		MinT:   events[0].T,
		MaxT:   events[0].T,
		ConnLo: events[0].Conn,
		ConnHi: events[0].Conn,
		LocLo:  uint16(events[0].Loc),
		LocHi:  uint16(events[0].Loc),
	}
	buf = binary.AppendUvarint(buf, uint64(len(events)))

	// Time column: zigzag deltas from the previous event (the first from
	// zero). Tracer streams are time-ordered, so deltas are small and
	// non-negative; zigzag keeps out-of-order offline ingests legal.
	prev := time.Duration(0)
	for i := range events {
		ev := &events[i]
		buf = binary.AppendUvarint(buf, zigzag(int64(ev.T-prev)))
		prev = ev.T
		if ev.T < info.MinT {
			info.MinT = ev.T
		}
		if ev.T > info.MaxT {
			info.MaxT = ev.T
		}
		info.TypeMask |= 1 << ev.Type
		if ev.Conn < info.ConnLo {
			info.ConnLo = ev.Conn
		}
		if ev.Conn > info.ConnHi {
			info.ConnHi = ev.Conn
		}
		if l := uint16(ev.Loc); l < info.LocLo {
			info.LocLo = l
		} else if l > info.LocHi {
			info.LocHi = l
		}
	}
	// Type and kind columns: one byte each (seven types, two kinds).
	for i := range events {
		buf = append(buf, byte(events[i].Type))
	}
	for i := range events {
		buf = append(buf, byte(events[i].Kind))
	}
	// Location and connection columns: per-chunk dictionary (the sorted
	// distinct values) followed by one dictionary code per event. A run
	// touches few distinct locations and connections per chunk, so codes
	// are almost always one byte.
	buf = e.appendDict(buf, events, false)
	buf = e.appendDict(buf, events, true)
	// Seq, size, id columns.
	for i := range events {
		buf = binary.AppendUvarint(buf, zigzag(int64(events[i].Seq)))
	}
	for i := range events {
		buf = binary.AppendUvarint(buf, zigzag(int64(events[i].Size)))
	}
	for i := range events {
		buf = binary.AppendUvarint(buf, events[i].ID)
	}
	// Value column: varint when every value is an exact integer.
	allInt := true
	for i := range events {
		v := events[i].Val
		if v != math.Trunc(v) || math.Abs(v) > 1<<52 || math.Signbit(v) && v == 0 {
			allInt = false
			break
		}
	}
	if allInt {
		buf = append(buf, valTagInt)
		for i := range events {
			buf = binary.AppendUvarint(buf, zigzag(int64(events[i].Val)))
		}
	} else {
		buf = append(buf, valTagRaw)
		for i := range events {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(events[i].Val))
		}
	}
	return buf, info
}

// appendDict writes one dictionary-encoded column — the events'
// locations, or with conn their zigzagged connections: the sorted
// distinct keys, then each event's key's position among them. One pass
// over the events builds the lookup — a map from key to first-seen
// index, with a repeat of the previous key short-circuiting it — and
// sorting the few distinct keys turns first-seen indices into codes.
func (e *chunkEncoder) appendDict(buf []byte, events []obs.Event, conn bool) []byte {
	if e.index == nil {
		e.index = map[uint64]uint32{}
	}
	clear(e.index)
	e.dict = e.dict[:0]
	if cap(e.codes) < len(events) {
		e.codes = make([]uint32, len(events))
	}
	codes := e.codes[:len(events)]
	var last uint64
	lastIdx := uint32(math.MaxUint32) // no previous key
	for i := range events {
		k := uint64(events[i].Loc)
		if conn {
			k = zigzag(int64(events[i].Conn))
		}
		if k != last || lastIdx == math.MaxUint32 {
			last, lastIdx = k, e.lookup(k)
		}
		codes[i] = lastIdx
	}

	d := len(e.dict)
	if cap(e.order) < d {
		e.order = make([]uint32, d)
		e.rank = make([]uint32, d)
	}
	order, rank := e.order[:d], e.rank[:d]
	for i := range order {
		order[i] = uint32(i)
	}
	slices.SortFunc(order, func(a, b uint32) int { return cmp.Compare(e.dict[a], e.dict[b]) })
	buf = binary.AppendUvarint(buf, uint64(d))
	for j, idx := range order {
		buf = binary.AppendUvarint(buf, e.dict[idx])
		rank[idx] = uint32(j)
	}
	for _, c := range codes {
		buf = binary.AppendUvarint(buf, uint64(rank[c]))
	}
	return buf
}

// lookup returns k's index in e.dict, appending it if new.
func (e *chunkEncoder) lookup(k uint64) uint32 {
	if idx, ok := e.index[k]; ok {
		return idx
	}
	idx := uint32(len(e.dict))
	e.dict = append(e.dict, k)
	e.index[k] = idx
	return idx
}

// colMask selects the event fields a chunk decode materializes. A
// query asks only for the columns its predicate and its fold read; the
// other columns are still walked and validated, just not written into
// the events, so a projected decode errors on exactly the payloads a
// full one does.
type colMask uint16

const (
	colT colMask = 1 << iota
	colType
	colKind
	colLoc
	colConn
	colSeq
	colSize
	colID
	colVal

	colAll = colT | colType | colKind | colLoc | colConn | colSeq | colSize | colID | colVal
)

// minEventBytes is the smallest encoding of one event: a byte in each
// of the eight per-event columns plus one value byte. A chunk claiming
// more events than payload/minEventBytes is corrupt, and is rejected
// before anything is allocated for it.
const minEventBytes = 9

// uvarintSlow decodes the varint at b[off:] and returns it with the
// offset just past it, or -1 when the encoding is truncated or overlong
// — exactly the cases binary.Uvarint reports with n <= 0.
func uvarintSlow(b []byte, off int) (uint64, int) {
	if uint(off) >= uint(len(b)) {
		return 0, -1
	}
	v, n := binary.Uvarint(b[off:])
	if n <= 0 {
		return 0, -1
	}
	return v, off + n
}

const contBits = 0x8080808080808080

// readUvarints decodes len(vals) consecutive varints from off into
// vals and returns the offset past them, or -(o+1) for a bad varint at
// o. Wherever eight bytes remain it decodes from one little-endian
// word: with no continuation bit set the word is eight one-byte
// varints; otherwise a varint of at most eight bytes ends at the word's
// first byte with its top bit clear, and its 7-bit groups are packed
// together in three mask-and-shift steps. Longer varints and the
// payload's last bytes take binary.Uvarint's path, so acceptance is
// exactly its.
func readUvarints(p []byte, off int, vals []uint64) int {
	for i := 0; i < len(vals); i++ {
		if off+8 <= len(p) {
			w := binary.LittleEndian.Uint64(p[off:])
			if w&contBits == 0 && i+8 <= len(vals) {
				// Eight one-byte varints.
				v := vals[i : i+8]
				v[0], v[1], v[2], v[3] = w&0xff, w>>8&0xff, w>>16&0xff, w>>24&0xff
				v[4], v[5], v[6], v[7] = w>>32&0xff, w>>40&0xff, w>>48&0xff, w>>56
				i += 7
				off += 8
				continue
			}
			if m := ^w & contBits; m != 0 {
				nb := bits.TrailingZeros64(m) + 1 // bits through the last byte
				x := w & (1<<nb - 1) &^ contBits
				x = x&0x007f007f007f007f | x&0x7f007f007f007f00>>1
				x = x&0x00003fff00003fff | x&0x3fff00003fff0000>>2
				vals[i] = x&0x000000000fffffff | x&0x0fffffff00000000>>4
				off += nb >> 3
				continue
			}
		}
		o := off
		if vals[i], off = uvarintSlow(p, off); off < 0 {
			return -o - 1
		}
	}
	return off
}

// skipUvarints walks n varints from off without decoding them,
// validating each as readUvarints does. It returns the offset past
// them, or -(o+1) for a bad varint at o, and whether any value is odd —
// a varint's low bit is its first byte's, and an odd zigzag code is a
// negative number. Whole words are consumed while they end fewer than
// the remaining varints and no continuation run nears the ten-byte
// limit; the rest goes varint by varint.
func skipUvarints(p []byte, off, n int) (int, bool) {
	var (
		odd   uint64
		run   int           // continuation bytes since the last terminator
		start uint64 = 0x01 // the word's first byte starts a varint
	)
	for off+8 <= len(p) {
		w := binary.LittleEndian.Uint64(p[off:])
		m := ^w & contBits
		k := bits.OnesCount64(m)
		if k >= n {
			break
		}
		if m == 0 {
			if run+8 > 9 {
				break
			}
			run += 8
		} else {
			if run+bits.TrailingZeros64(m)>>3 >= 9 {
				break
			}
			run = bits.LeadingZeros64(m) >> 3
		}
		// A terminator's bit 7, shifted up one, lands on bit 0 of the
		// byte after it: the first byte of the next varint.
		odd |= w & (m<<1 | start)
		start = m >> 63
		off += 8
		n -= k
	}
	off -= run // back to the start of the varint in progress
	for ; n > 0; n-- {
		if uint(off) >= uint(len(p)) {
			return -off - 1, false
		}
		odd |= uint64(p[off] & 1)
		if p[off] < 0x80 {
			off++
			continue
		}
		o := off
		if _, off = uvarintSlow(p, off); off < 0 {
			return -o - 1, false
		}
	}
	return off, odd != 0
}

func errVarint(off int) error {
	return fmt.Errorf("truncated or overlong varint at offset %d", off)
}

func errTruncated(off, want, have int) error {
	return fmt.Errorf("truncated field at offset %d (want %d bytes, have %d)", off, want, have)
}

// chunkDecoder is one scan's decode scratch — the raw payload, the
// events of the current chunk, one column of raw varints and a
// dictionary — reused from chunk to chunk. A scan takes one from
// decoderPool and returns it when done, so no two scans share one
// (a Store serves concurrent scans) while back-to-back queries reuse
// the same buffers instead of each allocating a chunk's worth.
type chunkDecoder struct {
	payload []byte
	events  []obs.Event
	vals    []uint64
	dict    []uint64
	// timed reports whether the last decode set the events' times.
	timed bool
}

var decoderPool = sync.Pool{New: func() any { return new(chunkDecoder) }}

// skipCol validates the n-varint column at off without decoding it,
// also reporting whether any value is odd (see skipUvarints).
func skipCol(p []byte, off, n int) (int, bool, error) {
	off, odd := skipUvarints(p, off, n)
	if off < 0 {
		return 0, false, errVarint(-off - 1)
	}
	return off, odd, nil
}

// varintCol decodes the n-varint column at off into d.vals when want
// is set, and otherwise only validates it.
func (d *chunkDecoder) varintCol(p []byte, off, n int, want bool) (int, error) {
	if !want {
		off, _, err := skipCol(p, off, n)
		return off, err
	}
	if off = readUvarints(p, off, d.vals[:n]); off < 0 {
		return 0, errVarint(-off - 1)
	}
	return off, nil
}

// decode parses one chunk payload holding count events (the index
// entry's figure) and returns them with the cols fields set; the other
// fields hold whatever the scratch held before. Every column is
// validated whatever cols says: varints are well-formed, types are
// known, dictionary codes and location ids (below nLocs) are in range,
// the value tag is known, and no bytes trail. Malformed payloads error,
// never panic, and the event count is checked against count and the
// payload length before the scratch grows.
func (d *chunkDecoder) decode(p []byte, nLocs, count int, cols colMask) ([]obs.Event, error) {
	n64, off := uvarintSlow(p, 0)
	if off < 0 {
		return nil, errVarint(0)
	}
	if n64 == 0 {
		return nil, fmt.Errorf("empty chunk")
	}
	if n64 != uint64(count) {
		return nil, fmt.Errorf("chunk holds %d events, index says %d", n64, count)
	}
	if n64 > uint64(len(p)/minEventBytes) {
		return nil, fmt.Errorf("event count %d exceeds what %d payload bytes can hold", n64, len(p))
	}
	n := int(n64)
	if cap(d.events) < n {
		d.events = make([]obs.Event, n)
		d.vals = make([]uint64, n)
	}
	dst, vals := d.events[:n], d.vals[:n]
	var err error

	// Time column: zigzag deltas. Left out of cols it is only walked —
	// unless a delta is negative, since then a time may fall below zero
	// and fail even the zero Query's lower bound: the column is decoded
	// after all, and d.timed tells the caller to test times.
	d.timed = cols&colT != 0
	if !d.timed {
		tOff := off
		if off, d.timed, err = skipCol(p, off, n); err != nil {
			return nil, err
		}
		if d.timed {
			off = tOff
		}
	}
	if d.timed {
		if off, err = d.varintCol(p, off, n, true); err != nil {
			return nil, err
		}
		t := int64(0)
		for i, v := range vals {
			t += unzigzag(v)
			dst[i].T = time.Duration(t)
		}
	}

	// Type and kind columns: one byte per event.
	if len(p)-off < 2*n {
		return nil, errTruncated(off, 2*n, len(p)-off)
	}
	for i, b := range p[off : off+n] {
		if b >= byte(obs.NumTypes) {
			return nil, fmt.Errorf("unknown event type %d in chunk", b)
		}
		if cols&colType != 0 {
			dst[i].Type = obs.Type(b)
		}
	}
	off += n
	if cols&colKind != 0 {
		for i, b := range p[off : off+n] {
			dst[i].Kind = packet.Kind(b)
		}
	}
	off += n

	// Location dictionary + codes. Ids at or above limit are invalid;
	// an unused invalid entry is harmless, a referenced one is not.
	if off, err = d.readDict(p, off, "location"); err != nil {
		return nil, err
	}
	if off, err = d.varintCol(p, off, n, true); err != nil {
		return nil, err
	}
	limit := uint64(math.MaxUint16) + 1
	if nLocs >= 0 && uint64(nLocs) < limit {
		limit = uint64(nLocs)
	}
	dict := d.dict
	for i, c := range vals {
		if c >= uint64(len(dict)) {
			return nil, fmt.Errorf("location code %d out of range [0,%d)", c, len(dict))
		}
		id := dict[c]
		if id >= limit {
			return nil, fmt.Errorf("location id %d out of range [0,%d)", id, nLocs)
		}
		if cols&colLoc != 0 {
			dst[i].Loc = obs.Loc(id)
		}
	}

	// Connection dictionary + codes.
	if off, err = d.readDict(p, off, "connection"); err != nil {
		return nil, err
	}
	if off, err = d.varintCol(p, off, n, true); err != nil {
		return nil, err
	}
	dict = d.dict
	for i, c := range vals {
		if c >= uint64(len(dict)) {
			return nil, fmt.Errorf("connection code %d out of range [0,%d)", c, len(dict))
		}
		if cols&colConn != 0 {
			dst[i].Conn = int32(unzigzag(dict[c]))
		}
	}

	// Seq, size and id columns.
	if off, err = d.varintCol(p, off, n, cols&colSeq != 0); err != nil {
		return nil, err
	}
	if cols&colSeq != 0 {
		for i, v := range vals {
			dst[i].Seq = int32(unzigzag(v))
		}
	}
	if off, err = d.varintCol(p, off, n, cols&colSize != 0); err != nil {
		return nil, err
	}
	if cols&colSize != 0 {
		for i, v := range vals {
			dst[i].Size = int32(unzigzag(v))
		}
	}
	if off, err = d.varintCol(p, off, n, cols&colID != 0); err != nil {
		return nil, err
	}
	if cols&colID != 0 {
		for i, v := range vals {
			dst[i].ID = v
		}
	}

	// Value column behind its tag.
	if off >= len(p) {
		return nil, errTruncated(off, 1, 0)
	}
	tag := p[off]
	off++
	switch tag {
	case valTagInt:
		if off, err = d.varintCol(p, off, n, cols&colVal != 0); err != nil {
			return nil, err
		}
		if cols&colVal != 0 {
			for i, v := range vals {
				dst[i].Val = float64(unzigzag(v))
			}
		}
	case valTagRaw:
		if len(p)-off < 8*n {
			return nil, errTruncated(off, 8*n, len(p)-off)
		}
		if cols&colVal != 0 {
			raw := p[off : off+8*n]
			for i := range dst {
				dst[i].Val = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
			}
		}
		off += 8 * n
	default:
		return nil, fmt.Errorf("unknown value-column tag %d", tag)
	}
	if off != len(p) {
		return nil, fmt.Errorf("%d trailing bytes after chunk payload", len(p)-off)
	}
	return dst, nil
}

// readDict reads one dictionary prefix — a count, then the values —
// into d.dict and returns the offset past it.
func (d *chunkDecoder) readDict(p []byte, off int, what string) (int, error) {
	n, o := uvarintSlow(p, off)
	if o < 0 {
		return 0, errVarint(off)
	}
	off = o
	if n > uint64(len(p)-off) {
		return 0, fmt.Errorf("%s dictionary count %d exceeds remaining payload (%d bytes)", what, n, len(p)-off)
	}
	if n == 0 {
		return 0, fmt.Errorf("empty %s dictionary", what)
	}
	if uint64(cap(d.dict)) < n {
		d.dict = make([]uint64, n)
	}
	d.dict = d.dict[:n]
	if o = readUvarints(p, off, d.dict); o < 0 {
		return 0, errVarint(-o - 1)
	}
	return o, nil
}

// crcFooter is the checksum the trailer carries over the footer bytes.
func crcFooter(b []byte) uint32 { return crc32.ChecksumIEEE(b) }
