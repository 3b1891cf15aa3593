package main

// Per-layer measurement for traced runs: spans around the layer calls
// the benchmark makes, and a CPU profile split by simulator package.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer; unit is the unit of work it
// belongs to.
type span struct {
	name       string
	unit       int
	start, end int64
}

// tracer keeps spans in memory until summary reduces them to per-layer
// metrics at the end of the run. A nil *tracer
// records nothing, so untraced runs pay two nil checks per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	// workers is the runner's worker count, for runner.idle_share.
	workers int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, unit int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, unit: unit, start: now, end: -1})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, unit int, fn func()) {
	id := t.begin(name, unit)
	fn()
	t.end(id)
}

func (s *span) seconds() float64 { return float64(s.end-s.start) / 1e9 }

// Span names the summary reduces to per-layer "<name>_s" metrics: the
// median over units of the summed span time in each unit.
var layerSpans = []string{
	"topology.generate", "topology.compile", "topology.link_change",
	"core.build", "core.run",
	"tstore.close", "tstore.open", "tstore.count", "tstore.windowed", "tstore.quantiles",
}

// summary reduces the spans to the span-based per-layer metrics.
func (t *tracer) summary() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]float64{}
	perUnit := map[string]map[int]float64{}
	var expRuns []float64
	passBusy := map[int]float64{}
	passWall := map[int]float64{}
	for i := range t.spans {
		s := &t.spans[i]
		if s.end < 0 {
			continue
		}
		switch s.name {
		case "experiment.run":
			expRuns = append(expRuns, s.seconds())
			passBusy[s.unit] += s.seconds()
		case "runner.pass":
			passWall[s.unit] = s.seconds()
		default:
			if perUnit[s.name] == nil {
				perUnit[s.name] = map[int]float64{}
			}
			perUnit[s.name][s.unit] += s.seconds()
		}
	}
	for _, name := range layerSpans {
		var xs []float64
		for _, v := range perUnit[name] {
			xs = append(xs, v)
		}
		out[name+"_s"] = median(xs)
	}
	if len(expRuns) > 0 {
		sort.Float64s(expRuns)
		out["experiment.run_s.p50"] = median(expRuns)
		out["experiment.run_s.p90"] = expRuns[(len(expRuns)*9)/10]
	}
	var idle []float64
	for u, wall := range passWall {
		if wall > 0 && t.workers > 0 {
			idle = append(idle, 1-passBusy[u]/(float64(t.workers)*wall))
		}
	}
	out["runner.idle_share"] = median(idle)
	return out
}

const internalPrefix = "tahoedyn/internal/"

// splitProfile attributes every CPU sample to the innermost
// tahoedyn/internal/<pkg> frame on its stack (inlined frames included),
// so allocation and memclr work lands on the layer that caused it.
// Samples with no such frame go to runtime.bg. It returns each layer's
// share of the sampled CPU time as "<layer>.cpu_share".
func splitProfile(gz []byte) (map[string]float64, error) {
	if len(gz) == 0 {
		return nil, errors.New("empty CPU profile")
	}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("CPU profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("CPU profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("CPU profile: %w", err)
	}
	known := map[string]bool{}
	for _, l := range layerPkgs {
		known[l] = true
	}
	layerOf := func(fn string) (string, bool) {
		rest, ok := strings.CutPrefix(fn, internalPrefix)
		if !ok {
			return "", false
		}
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		if known[rest] {
			return rest, true
		}
		return "other", true
	}
	byLayer := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		layer := "runtime.bg"
	stack:
		for _, locID := range s.locs {
			for _, fnID := range p.locFuncs[locID] {
				if l, ok := layerOf(p.funcName[fnID]); ok {
					layer = l
					break stack
				}
			}
		}
		byLayer[layer] += s.value
		total += s.value
	}
	out := map[string]float64{}
	if total == 0 {
		return out, errors.New("CPU profile has no samples")
	}
	for l, v := range byLayer {
		out[l+".cpu_share"] = v / total
	}
	return out, nil
}

// profile is the part of a pprof profile the split needs.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location id → function ids, innermost first
	funcName map[uint64]string
}

type sample struct {
	locs  []uint64 // leaf first
	value float64
}

// parseProfile decodes the profile.proto message (github.com/google/pprof
// proto/profile.proto) far enough to attribute samples to functions.
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]string{}}
	var (
		strs       []string
		sampleType []int64 // type string index per value slot
		rawSamples []struct {
			locs []uint64
			vals []int64
		}
		funcNameIdx = map[uint64]int64{}
	)
	err := pbFields(b, func(num int, wire int, v uint64, data []byte) error {
		switch num {
		case 1: // sample_type
			var typ int64
			if err := pbFields(data, func(n, w int, v uint64, _ []byte) error {
				if n == 1 {
					typ = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			sampleType = append(sampleType, typ)
		case 2: // sample
			var locs []uint64
			var vals []int64
			if err := pbFields(data, func(n, w int, v uint64, d []byte) error {
				switch n {
				case 1:
					return pbRepeated(w, v, d, func(x uint64) { locs = append(locs, x) })
				case 2:
					return pbRepeated(w, v, d, func(x uint64) { vals = append(vals, int64(x)) })
				}
				return nil
			}); err != nil {
				return err
			}
			rawSamples = append(rawSamples, struct {
				locs []uint64
				vals []int64
			}{locs, vals})
		case 4: // location
			var id uint64
			var fns []uint64
			if err := pbFields(data, func(n, w int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return pbFields(d, func(n, w int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locFuncs[id] = fns
		case 5: // function
			var id uint64
			var name int64
			if err := pbFields(data, func(n, w int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcNameIdx[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	// Weigh samples by CPU nanoseconds when the profile carries them.
	slot := 0
	for i, t := range sampleType {
		if str(t) == "cpu" {
			slot = i
		}
	}
	for id, idx := range funcNameIdx {
		p.funcName[id] = str(idx)
	}
	for _, rs := range rawSamples {
		if slot < len(rs.vals) {
			p.samples = append(p.samples, sample{rs.locs, float64(rs.vals[slot])})
		}
	}
	return p, nil
}

// pbFields walks the fields of one protobuf message, calling fn with the
// field number, wire type, and either the varint value or the
// length-delimited payload.
func pbFields(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n <= 0 {
			return errors.New("bad protobuf key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = pbVarint(b)
			if n <= 0 {
				return errors.New("bad protobuf varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short protobuf fixed64")
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad protobuf length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short protobuf fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// pbRepeated decodes a repeated varint field in either packed or
// unpacked encoding.
func pbRepeated(wire int, v uint64, data []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(data) > 0 {
		x, n := pbVarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		add(x)
		data = data[n:]
	}
	return nil
}

func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, -1
}
