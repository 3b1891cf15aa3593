package tstore_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"tahoedyn/internal/core"
	"tahoedyn/internal/obs"
	"tahoedyn/internal/tstore"
)

// The TOBC format is a contract with every store already on disk: the
// encoder may get faster, but the bytes it writes for a given event
// stream may not change without a storeVersion bump. These tests pin
// FNV-64a hashes of whole store files — a synthetic trace at several
// chunk sizes (single-event chunks, odd sizes, raw and integer value
// columns) and a short traced fig4-5 dumbbell run.

func TestFormatGoldenSynth(t *testing.T) {
	locs, events := tstore.SynthTrace(20000, 5, 9, 11)
	for _, tc := range []struct {
		chunk int
		want  string
	}{
		{1, "62a4aee5eb3f249d"},
		{97, "e48aa9a2bc9893ea"},
		{512, "250eab33229a67dc"},
		{tstore.DefaultChunkEvents, "8492ef7c64d55e63"},
	} {
		var buf bytes.Buffer
		w := tstore.NewWriter(&buf, tstore.WriterOptions{ChunkEvents: tc.chunk})
		if err := w.Begin(); err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(events); off += 1500 {
			if err := w.Events(locs, events[off:min(off+1500, len(events))]); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(buf.Bytes())
		if got := fmt.Sprintf("%016x", h.Sum64()); got != tc.want {
			t.Errorf("chunk %d: store hash %s (%d bytes), want %s", tc.chunk, got, buf.Len(), tc.want)
		}
	}
}

func TestFormatGoldenFig45(t *testing.T) {
	cfg := core.DumbbellConfig(10*time.Millisecond, 20)
	cfg.Warmup = 20 * time.Second
	cfg.Duration = 300 * time.Second
	cfg.Conns = []core.ConnSpec{
		{SrcHost: 0, DstHost: 1, Start: -1},
		{SrcHost: 1, DstHost: 0, Start: -1},
	}
	var buf bytes.Buffer
	w := tstore.NewWriter(&buf, tstore.WriterOptions{ChunkEvents: 4096})
	cfg.Obs = &obs.Options{Trace: &obs.TraceOptions{Sink: w}}
	res := core.Run(cfg)
	if res.TraceErr != nil {
		t.Fatal(res.TraceErr)
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())
	const want = "c128b3976a7d7cf2"
	if got := fmt.Sprintf("%016x", h.Sum64()); got != want {
		t.Errorf("fig4-5 store hash %s (%d bytes, %d events), want %s", got, buf.Len(), w.TotalEvents(), want)
	}
}
