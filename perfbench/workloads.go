package main

// The three workloads. Each generates its inputs from the seed, runs
// units of work through the simulator's layer APIs until the
// measurement window closes, checks every unit's outputs, and records
// one sample per unit.

import (
	"bytes"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"time"

	"tahoedyn/internal/core"
	"tahoedyn/internal/experiment"
	"tahoedyn/internal/link"
	"tahoedyn/internal/obs"
	"tahoedyn/internal/runner"
	"tahoedyn/internal/topology"
	"tahoedyn/internal/tstore"
)

// minUnits is the fewest units a run measures, however short --seconds.
const minUnits = 3

// digester hashes a workload's outputs into a short comparable string.
type digester struct{ h hash.Hash64 }

func newDigester() *digester { return &digester{fnv.New64a()} }

func (d *digester) add(format string, args ...any) { fmt.Fprintf(d.h, format+"\n", args...) }

func (d *digester) sum() string { return fmt.Sprintf("%016x", d.h.Sum64()) }

// countResult records a run's exact counts as per-layer values.
func (b *bench) countResult(r *core.Result) {
	b.layer["core.events"] += float64(r.Events)
	b.layer["link.drops"] += float64(len(r.Drops))
	for _, st := range r.SenderStats {
		b.layer["tcp.retransmits"] += float64(st.Retransmits)
		b.layer["tcp.timeouts"] += float64(st.Timeouts)
	}
}

// ---------------------------------------------------------------------
// paper-suite

// The suite's set-up is timed over and over until setupSpan has passed
// (and at least minSetupReps times), and setup_s is the median.
const (
	setupSpan    = time.Second
	minSetupReps = 5
)

// topologyReps is how many times a traced run times the topology layer
// on its own, before its measurement window.
const topologyReps = 2

// paperSuite runs every registered experiment at full scale, fanned over
// one runner worker per CPU, pass after pass — what `tahoe-sim -all`
// does. Experiments keep their internal sweeps serial, so the runner is
// the only fan-out and runner.idle_share is well defined.
func paperSuite(b *bench) error {
	defs := experiment.All()
	workers := runtime.NumCPU()
	opts := experiment.Options{Seed: b.seed, Scale: 1}
	b.params["experiments"] = len(defs)
	b.params["scale"] = opts.Scale
	b.params["workers"] = workers
	if b.tr != nil {
		b.tr.workers = workers
	}

	// The warm-up pass fills caches and yields the reference digest and
	// the headline configurations the set-up step rebuilds.
	outs := b.suitePass(defs, workers, opts, -1)
	ref := suiteDigest(outs)
	b.digest = ref
	var cfgs []core.Config
	for _, o := range outs {
		if o == nil || o.Result == nil {
			continue
		}
		cfgs = append(cfgs, o.Result.Cfg)
		b.countResult(o.Result)
	}
	b.params["headline_configs"] = len(cfgs)

	// Set-up: build every headline configuration up to its first event.
	setupStart := time.Now()
	for r := 0; r < minSetupReps || time.Since(setupStart) < setupSpan; r++ {
		t0 := time.Now()
		for _, cfg := range cfgs {
			if _, err := b.build(cfg, r); err != nil {
				return err
			}
		}
		b.setup = append(b.setup, time.Since(t0).Seconds())
	}
	if b.tr != nil {
		for r := 0; r < topologyReps; r++ {
			for _, cfg := range cfgs {
				b.tr.timed("topology.generate", r, func() { _ = cfg.Graph() })
				if err := b.timeTopology(cfg, r); err != nil {
					return err
				}
			}
		}
	}

	if err := b.windowStart(); err != nil {
		return err
	}
	start := time.Now()
	for pass := 0; b.measuring(start, pass); pass++ {
		runtime.GC() // see meshFlows
		t0 := time.Now()
		id := b.tr.begin("runner.pass", pass)
		outs := b.suitePass(defs, workers, opts, pass)
		b.tr.end(id)
		wall := time.Since(t0).Seconds()
		var events uint64
		for _, o := range outs {
			if o != nil && o.Result != nil {
				events += o.Result.Events
			}
		}
		if d := suiteDigest(outs); d != ref {
			b.problem("pass %d digest %s differs from the warm-up pass's %s", pass, d, ref)
		}
		b.unitDone(wall, float64(events), wall)
	}
	b.windowEnd()
	return nil
}

// suitePass runs every experiment once on the worker pool. A panicking
// experiment counts as a failed operation and leaves a nil outcome.
func (b *bench) suitePass(defs []experiment.Definition, workers int, opts experiment.Options, unit int) []*experiment.Outcome {
	outs := make([]*experiment.Outcome, len(defs))
	errs := make([]error, len(defs))
	tr := b.tr
	if unit < 0 {
		tr = nil // the warm-up pass is not measured
	}
	runner.Each(workers, len(defs), func(i int) {
		id := tr.begin("experiment.run", unit)
		outs[i], errs[i] = runExperiment(defs[i], opts)
		tr.end(id)
	})
	for i, err := range errs {
		b.attempted++
		if err != nil {
			b.fail("experiment %s: %v", defs[i].Name, err)
		}
	}
	return outs
}

func runExperiment(d experiment.Definition, opts experiment.Options) (o *experiment.Outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			o, err = nil, fmt.Errorf("panic: %v", r)
		}
	}()
	o = d.Run(opts)
	if o == nil {
		return nil, errors.New("no outcome")
	}
	return o, nil
}

// suiteDigest covers each experiment's band-pass vector and its headline
// run's event count and forward utilization.
func suiteDigest(outs []*experiment.Outcome) string {
	d := newDigester()
	for _, o := range outs {
		if o == nil {
			d.add("missing")
			continue
		}
		pass := make([]byte, len(o.Metrics))
		for i, m := range o.Metrics {
			pass[i] = '0'
			if m.Pass {
				pass[i] = '1'
			}
		}
		d.add("%s %s", o.ID, pass)
		if r := o.Result; r != nil {
			util := 0.0
			if len(r.TrunkUtil) > 0 {
				util = r.TrunkUtil[0][0]
			}
			d.add("events=%d util=%x", r.Events, math.Float64bits(util))
		}
	}
	return d.sum()
}

// build builds the simulation up to its first event.
func (b *bench) build(cfg core.Config, unit int) (*core.Sim, error) {
	var (
		sim *core.Sim
		err error
	)
	b.tr.timed("core.build", unit, func() { sim, err = core.BuildE(cfg) })
	return sim, err
}

// timeTopology times the topology layer's part of building cfg on its
// own: the route compile and, for a configuration with link events, the
// incremental update for its first event on a clone, as core.BuildE
// does both. Traced runs call it outside the measurement window, so the
// window's profile and allocation figures cover only the work an
// untraced unit does.
func (b *bench) timeTopology(cfg core.Config, unit int) error {
	var (
		topo *topology.Compiled
		err  error
	)
	b.tr.timed("topology.compile", unit, func() { topo, err = cfg.CompileTopology() })
	if err != nil || len(cfg.Events) == 0 {
		return err
	}
	ev := cfg.Events[0]
	l := topo.Links[ev.Link]
	w := l.Delay + link.TxTime(core.DefaultDataSize, ev.Bandwidth)
	work := topo.Clone()
	b.tr.timed("topology.link_change", unit, func() { _, err = work.ApplyLinkChange(ev.Link, w) })
	return err
}

// ---------------------------------------------------------------------
// mesh-flows

// The mesh-flows inputs: a Barabási–Albert graph with hosts placed on
// random switches and long flows between random host pairs, trunks at
// 4× the paper rate, and one mid-run bandwidth step that halves it on
// one link. With 4,000 flows the hub links are so oversubscribed that
// some flows lose their first segment and its retransmissions and
// deliver nothing within 30 s (Tahoe's 3 s initial RTO doubles on each
// loss); 1,000 flows keep every flow delivering at every seed tried.
const (
	meshSwitches = 20000
	meshM        = 2
	meshHosts    = 256
	meshConns    = 1000
	meshDelay    = time.Millisecond
	meshBuffer   = 20
	meshWarmup   = time.Second
	meshDuration = 30 * time.Second
	meshTrunkBW  = 4 * core.DefaultTrunkBandwidth
	meshEventBW  = meshTrunkBW / 2
	meshEventAt  = meshDuration / 2
	meshEventLnk = 0 // one of the graph's oldest, most central links
)

// meshConfig generates the mesh-flows scenario from the seed.
func meshConfig(seed int64) core.Config {
	g := topology.BarabasiAlbert(meshSwitches, meshM, seed)
	rng := rand.New(rand.NewSource(seed))
	g.Hosts = make([]topology.HostSpec, meshHosts)
	for i, sw := range rng.Perm(meshSwitches)[:meshHosts] {
		g.Hosts[i] = topology.HostSpec{Switch: sw}
	}
	cfg := core.Config{
		Topology:       &g,
		TrunkBandwidth: meshTrunkBW,
		TrunkDelay:     meshDelay,
		Buffer:         meshBuffer,
		Seed:           seed,
		Warmup:         meshWarmup,
		Duration:       meshDuration,
		MeasureTrunks:  []int{},
		MeasureConns:   []int{},
		Events:         []core.LinkEvent{{T: meshEventAt, Link: meshEventLnk, Bandwidth: meshEventBW}},
	}
	cfg.Conns = make([]core.ConnSpec, meshConns)
	for k := range cfg.Conns {
		src := rng.Intn(meshHosts)
		dst := rng.Intn(meshHosts - 1)
		if dst >= src {
			dst++
		}
		cfg.Conns[k] = core.ConnSpec{SrcHost: src, DstHost: dst, Start: -1}
	}
	return cfg
}

// meshFlows builds and runs the mesh scenario, serially, once per unit.
// Set-up (generate + build, which compiles routes and precomputes the
// link event) is timed separately from the run.
func meshFlows(b *bench) error {
	b.params["switches"] = meshSwitches
	b.params["m"] = meshM
	b.params["hosts"] = meshHosts
	b.params["flows"] = meshConns
	b.params["trunk_bandwidth"] = meshTrunkBW
	b.params["duration_s"] = meshDuration.Seconds()
	b.params["event"] = fmt.Sprintf("link %d to %d b/s at %v", meshEventLnk, meshEventBW, meshEventAt)

	if b.tr != nil {
		for r := 0; r < topologyReps; r++ {
			if err := b.timeTopology(meshConfig(b.seed), r); err != nil {
				return err
			}
		}
	}
	if err := b.windowStart(); err != nil {
		return err
	}
	var ref string
	start := time.Now()
	for u := 0; b.measuring(start, u); u++ {
		// Collect the previous unit's simulation first: each unit then
		// starts from the same heap, no two simulations hold memory at
		// once, and the collection of one unit's garbage does not land
		// in the next unit's timing. Forced collections are left out of
		// runtime.gc_cycles.
		runtime.GC()
		t0 := time.Now()
		var cfg core.Config
		b.tr.timed("topology.generate", u, func() { cfg = meshConfig(b.seed) })
		sim, err := b.build(cfg, u)
		b.attempted++
		if err != nil {
			return fmt.Errorf("build: %w", err)
		}
		b.setup = append(b.setup, time.Since(t0).Seconds())

		t1 := time.Now()
		var res *core.Result
		b.tr.timed("core.run", u, func() { res = sim.Finish() })
		wall := time.Since(t1).Seconds()

		d := newDigester()
		d.add("events=%d", res.Events)
		var delivered int
		idle := 0
		for k, n := range res.Delivered {
			delivered += n
			d.add("%d", n)
			if n <= 0 {
				idle++
				if idle <= 3 {
					b.problem("flow %d delivered nothing", k)
				}

			}
		}
		b.attempted += len(res.Delivered)
		b.failed += idle
		if res.Invariant != nil {
			b.fail("invariant: %v", res.Invariant)
		}
		if delivered == 0 || res.Events == 0 {
			b.problem("run delivered %d packets in %d events", delivered, res.Events)
		}
		digest := d.sum()
		if ref == "" {
			ref = digest
			b.digest = digest
			b.countResult(res)
			b.layer["packet.pool_allocs"] = float64(sim.Pool().Allocs())
			b.params["delivered"] = delivered
			b.params["events"] = res.Events
		} else if digest != ref {
			b.problem("unit %d digest %s differs from unit 0's %s", u, digest, ref)
		}
		b.unitDone(wall, float64(res.Events), wall)
	}
	b.windowEnd()
	return nil
}

// ---------------------------------------------------------------------
// trace-store

// The trace-store inputs: the fig4-5 two-way dumbbell (τ = 10 ms,
// B = 20), run long with a full trace into the chunked store and online
// invariants, then queried.
const (
	traceTau      = 10 * time.Millisecond
	traceBuffer   = 20
	traceWarmup   = 200 * time.Second
	traceDuration = 10000 * time.Second
	traceWindow   = 10 * time.Second // Windowed query width
	traceBufBytes = 128 << 20        // above the ~73 MB one run writes
)

var traceProbs = []float64{0.5, 0.9, 0.99}

func traceConfig(seed int64) core.Config {
	cfg := core.DumbbellConfig(traceTau, traceBuffer)
	cfg.Seed = seed
	cfg.Warmup = traceWarmup
	cfg.Duration = traceDuration
	cfg.Conns = []core.ConnSpec{
		{SrcHost: 0, DstHost: 1, Start: -1},
		{SrcHost: 1, DstHost: 0, Start: -1},
	}
	cfg.Invariants = &tstore.CheckOptions{}
	return cfg
}

// traceStore runs the dumbbell with its trace written to an in-memory
// store, then reads it back with Count, Windowed and Quantiles queries.
// One unit is run + Close + open + the query pass.
func traceStore(b *bench) error {
	b.params["tau_ms"] = traceTau.Milliseconds()
	b.params["buffer"] = traceBuffer
	b.params["duration_s"] = traceDuration.Seconds()
	b.params["invariants"] = true

	// The in-memory store gets its capacity up front (untouched until
	// written) and is reused, so the harness's own buffer growth stays
	// out of the allocation and peak-memory figures.
	buf := bytes.NewBuffer(make([]byte, 0, traceBufBytes))
	if b.tr != nil {
		for r := 0; r < topologyReps; r++ {
			if err := b.timeTopology(traceConfig(b.seed), r); err != nil {
				return err
			}
		}
	}
	if err := b.windowStart(); err != nil {
		return err
	}
	var ref string
	var queryRate []float64
	start := time.Now()
	for u := 0; b.measuring(start, u); u++ {
		runtime.GC() // see meshFlows
		buf.Reset()
		w := tstore.NewWriter(buf, tstore.WriterOptions{})
		t0 := time.Now()
		var cfg core.Config
		b.tr.timed("topology.generate", u, func() { cfg = traceConfig(b.seed) })
		cfg.Obs = &obs.Options{Trace: &obs.TraceOptions{Sink: w}}
		sim, err := b.build(cfg, u)
		b.attempted++
		if err != nil {
			return fmt.Errorf("build: %w", err)
		}
		b.setup = append(b.setup, time.Since(t0).Seconds())

		t1 := time.Now()
		var res *core.Result
		b.tr.timed("core.run", u, func() { res = sim.Finish() })
		runWall := time.Since(t1).Seconds()
		b.tr.timed("tstore.close", u, func() { err = w.Close() })
		b.attempted++
		if err != nil {
			b.fail("close: %v", err)
			continue
		}
		q0 := time.Now()
		var store *tstore.Store
		b.tr.timed("tstore.open", u, func() {
			store, err = tstore.NewStore(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
		})
		b.attempted++
		if err != nil {
			b.fail("open: %v", err)
			continue
		}
		qr, err := b.queryPass(store, u)
		queryWall := time.Since(q0).Seconds()
		wall := time.Since(t1).Seconds()
		if err != nil {
			b.fail("query: %v", err)
			continue
		}

		b.attempted++ // the run's invariant check
		if res.Invariant != nil {
			b.fail("invariant: %v", res.Invariant)
		}
		if res.TraceErr != nil {
			b.problem("trace error: %v", res.TraceErr)
		}
		total := store.TotalEvents()
		if qr.all != total || w.TotalEvents() != total {
			b.problem("Count %d, store total %d, writer total %d", qr.all, total, w.TotalEvents())
		}
		if qr.drops != uint64(len(res.Drops)) {
			b.problem("store holds %d drops, the run recorded %d", qr.drops, len(res.Drops))
		}

		d := newDigester()
		d.add("events=%d stored=%d bytes=%d drops=%d", res.Events, total, buf.Len(), qr.drops)
		d.add("util=%x,%x", math.Float64bits(res.UtilForward()), math.Float64bits(res.UtilReverse()))
		d.add("windowed=%d/%d q=%v", qr.winCount, qr.winBytes, qr.quantiles)
		digest := d.sum()
		if ref == "" {
			ref = digest
			b.digest = digest
			b.countResult(res)
			b.layer["packet.pool_allocs"] = float64(sim.Pool().Allocs())
			b.layer["tstore.events"] = float64(total)
			b.layer["tstore.bytes_per_event"] = float64(buf.Len()) / float64(total)
			b.layer["tstore.skip_share"] = qr.skipShare
			b.params["events"] = res.Events
			b.params["stored_events"] = total
		} else if digest != ref {
			b.problem("unit %d digest %s differs from unit 0's %s", u, digest, ref)
		}
		queryRate = append(queryRate, float64(total)/queryWall)
		b.unitDone(wall, float64(res.Events), runWall)
	}
	b.windowEnd()
	b.layer["tstore.query_events_per_s"] = median(queryRate)
	return nil
}

// queryResult is what one query pass read back.
type queryResult struct {
	all, drops         uint64
	winCount, winBytes int64
	quantiles          []float64
	skipShare          float64
}

// queryPass runs the queries a reader of the trace would: total and
// per-type counts, per-link throughput in fixed windows, queue-length
// quantiles at arrival, and a narrow time slice that the chunk index
// should mostly skip.
func (b *bench) queryPass(s *tstore.Store, unit int) (queryResult, error) {
	var (
		qr  queryResult
		err error
	)
	b.tr.timed("tstore.count", unit, func() {
		if qr.all, err = s.Count(tstore.Query{}); err != nil {
			return
		}
		qr.drops, err = s.Count(tstore.Query{Filter: obs.Filter{Types: 1 << obs.Drop}})
	})
	b.attempted++
	if err != nil {
		return qr, fmt.Errorf("count: %w", err)
	}
	b.tr.timed("tstore.windowed", unit, func() {
		var wins map[string][]tstore.WindowStat
		wins, err = tstore.Windowed(s, tstore.Query{Filter: obs.Filter{Types: 1 << obs.Transmit}},
			tstore.WindowOptions{Width: traceWindow, ByLoc: true})
		if err != nil {
			return
		}
		for _, ws := range wins {
			for i := range ws {
				qr.winCount += ws[i].Count
				qr.winBytes += ws[i].Bytes
			}
		}
		// A 1% time slice: the footer index should skip most chunks.
		chunks := s.Chunks()
		if len(chunks) == 0 {
			return
		}
		span := chunks[len(chunks)-1].MaxT
		var skipped int
		skipped, err = s.ScanStats(tstore.Query{From: span / 2, To: span/2 + span/100},
			func(*obs.Event) error { return nil })
		qr.skipShare = float64(skipped) / float64(len(chunks))
	})
	b.attempted++
	if err != nil {
		return qr, fmt.Errorf("windowed: %w", err)
	}
	b.tr.timed("tstore.quantiles", unit, func() {
		qr.quantiles, _, err = tstore.Quantiles(s, tstore.Query{Filter: obs.Filter{Types: 1 << obs.Enqueue}}, traceProbs)
	})
	b.attempted++
	if err != nil {
		return qr, fmt.Errorf("quantiles: %w", err)
	}
	return qr, nil
}
