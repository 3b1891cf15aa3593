// Command perfbench is the repository benchmark: it runs one named
// workload through the simulator's public layer APIs (internal/experiment,
// internal/core, internal/topology, internal/tstore), checks the outputs,
// and prints every metric by name and unit.
//
//	perfbench --workload paper-suite --seed 1 --seconds 20 --trace 0
//	perfbench --workload mesh-flows --seed 3 --seconds 20 --trace 1
//	perfbench --compare base.jsonl new.jsonl
//
// Untraced runs (--trace 0) report the end-to-end metrics. Traced runs
// (--trace 1) record spans around every layer call the benchmark makes
// and a CPU profile split by package, and report the per-layer metrics.
// The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the lines before it
// carry the run's provenance and output digest. Concatenating the
// stdout of several runs gives a result set for --compare.
//
// perfbench/run.sh builds and runs it from the repository root; see
// NOTES.md for the workloads, metrics and the layer map.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// defaultSeed is the seed whose output digests are pinned in digests.
const defaultSeed = 1

// metricSpec names one metric, its unit, and which direction is better.
// BENCHMARK.json mirrors these tables.
type metricSpec struct {
	name, unit string
	higher     bool
}

// endToEnd are the metrics of an untraced run, on every workload.
var endToEnd = []metricSpec{
	{"wall_s", "s", false},
	{"setup_s", "s", false},
	{"sim_events_per_s", "1/s", true},
	{"peak_rss_mb", "MB", false},
}

// layerPkgs are the tahoedyn/internal packages the CPU profile is split
// over; every other internal package lands in "other", and samples with
// no internal frame in "runtime.bg".
var layerPkgs = []string{
	"sim", "link", "queue", "tcp", "node", "packet", "trace", "core",
	"analysis", "topology", "obs", "tstore", "experiment",
}

// perLayer are the metrics of a traced run, on every workload. A layer
// a workload never calls reads 0.
var perLayer = func() []metricSpec {
	m := []metricSpec{
		{"bench.traced_wall_s", "s", false},
		{"experiment.run_s.p50", "s", false},
		{"experiment.run_s.p90", "s", false},
		{"runner.idle_share", "share", false},
		{"topology.generate_s", "s", false},
		{"topology.compile_s", "s", false},
		{"topology.link_change_s", "s", false},
		{"core.build_s", "s", false},
		{"core.run_s", "s", false},
		{"tstore.close_s", "s", false},
		{"tstore.open_s", "s", false},
		{"tstore.count_s", "s", false},
		{"tstore.windowed_s", "s", false},
		{"tstore.quantiles_s", "s", false},
		{"tstore.query_events_per_s", "1/s", true},
		{"core.events", "count", false},
		{"tcp.retransmits", "count", false},
		{"tcp.timeouts", "count", false},
		{"link.drops", "count", false},
		{"packet.pool_allocs", "count", false},
		{"tstore.events", "count", false},
		{"tstore.bytes_per_event", "B", false},
		{"tstore.skip_share", "share", true},
		{"runtime.alloc_mb", "MB", false},
		{"runtime.mallocs", "count", false},
		{"runtime.gc_cycles", "count", false},
		{"core.alloc_b_per_event", "B", false},
	}
	for _, p := range layerPkgs {
		m = append(m, metricSpec{p + ".cpu_share", "share", false})
	}
	return append(m,
		metricSpec{"other.cpu_share", "share", false},
		metricSpec{"runtime.bg.cpu_share", "share", false})
}()

// workload is one named set of inputs the benchmark can run.
type workload struct {
	name string
	run  func(b *bench) error
}

var workloads = []workload{
	{"paper-suite", paperSuite},
	{"mesh-flows", meshFlows},
	{"trace-store", traceStore},
}

// digests pins each workload's output digest at defaultSeed. A run at
// that seed whose digest differs is incorrect.
var digests = map[string]string{
	"paper-suite": "f0010ea160580fa7",
	"mesh-flows":  "2a0c29e36dd9259a",
	"trace-store": "6b358555c60bb5f6",
}

// bench is the state of one benchmark run: its inputs, the samples
// gathered per unit of work, and the outcome of the output checks.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	tr       *tracer // nil on untraced runs

	params map[string]any

	// Per-unit samples of the end-to-end metrics.
	wall, setup, eventsPerS []float64

	attempted, failed int
	problems          []string
	digest            string

	// layer holds per-layer values computed by the workload itself
	// (counts per unit); the spans and profile add the rest.
	layer map[string]float64
	// units counts completed units inside the measurement window.
	units int

	// ms0 and ms1 snapshot the allocator at the window's ends.
	ms0, ms1 runtime.MemStats
	windowOn bool
	cpuProf  bytes.Buffer // traced runs: the window's CPU profile
}

// fail records a failed operation with its reason.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	b.problem(format, args...)
}

// problem records an incorrect output without counting an operation.
func (b *bench) problem(format string, args ...any) {
	if len(b.problems) < 20 {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

// measuring reports whether the measurement window should take another
// unit: at least minUnits, then while another unit of the average
// length would end closer to --seconds than stopping now.
func (b *bench) measuring(start time.Time, done int) bool {
	if done < minUnits {
		return true
	}
	el := time.Since(start)
	return el+el/time.Duration(2*done) < b.seconds
}

// unitDone records one measured unit's samples.
func (b *bench) unitDone(wall, events, eventSeconds float64) {
	b.wall = append(b.wall, wall)
	b.eventsPerS = append(b.eventsPerS, events/eventSeconds)
	b.units++
}

// peakRSSMB returns the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// windowStart opens the measurement window: it snapshots the allocator
// and, on a traced run, starts the CPU profile.
func (b *bench) windowStart() error {
	runtime.GC()
	runtime.ReadMemStats(&b.ms0)
	b.windowOn = true
	if b.tr != nil {
		return pprof.StartCPUProfile(&b.cpuProf)
	}
	return nil
}

// windowEnd closes the measurement window.
func (b *bench) windowEnd() {
	if !b.windowOn {
		return
	}
	b.windowOn = false
	if b.tr != nil {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&b.ms1)
}

type provenance struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Trace      int            `json:"trace"`
	Revision   string         `json:"revision"`
	Modified   string         `json:"modified"`
	GoVersion  string         `json:"go"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NProc      int            `json:"nproc"`
	Params     map[string]any `json:"params"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload to run: paper-suite, mesh-flows or trace-store")
		seed    = fs.Int64("seed", defaultSeed, "seed the workload's inputs are generated from")
		seconds = fs.Float64("seconds", 10, "length of the measurement window in seconds")
		traced  = fs.Int("trace", 0, "1 records spans and a CPU profile and reports per-layer metrics")
		compare = fs.Bool("compare", false, "compare two result sets: perfbench --compare BASE NEW")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "perfbench: --compare needs two result files: BASE NEW")
			return 2
		}
		return compareMode(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want paper-suite, mesh-flows or trace-store)\n", *name)
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace takes 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		return 2
	}

	b := &bench{
		workload: wl.name,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		params:   map[string]any{},
		layer:    map[string]float64{},
	}
	if *traced == 1 {
		b.tr = newTracer()
	}

	err := wl.run(b)
	b.windowEnd()
	if err != nil {
		b.fail("%s: %v", wl.name, err)
	}

	rev, modified := buildRevision()
	prov := provenance{
		Workload: wl.name, Seed: b.seed, Seconds: *seconds, Trace: *traced,
		Revision: rev, Modified: modified, GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), Params: b.params,
	}
	if err := printJSON(map[string]any{"provenance": prov}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	// Output digest: pinned at the default seed, printed at every seed
	// so two commits can be compared.
	if want := digests[wl.name]; b.seed == defaultSeed && want != "" && b.digest != want {
		b.problem("digest %s at seed %d, pinned %s", b.digest, b.seed, want)
	}
	fmt.Printf("digest %s seed=%d %s\n", wl.name, b.seed, b.digest)

	var metrics map[string]metricValue
	if b.tr == nil {
		metrics = b.endToEndMetrics()
	} else {
		metrics, err = b.layerMetrics()
		if err != nil {
			b.problem("per-layer metrics: %v", err)
		}
	}
	for _, p := range b.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", p)
	}
	res := result{
		Correct:   len(b.problems) == 0 && b.units > 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   metrics,
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Correct = false
	}
	if err := printJSON(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// endToEndMetrics reduces the per-unit samples to medians.
func (b *bench) endToEndMetrics() map[string]metricValue {
	vals := map[string]float64{
		"wall_s":           median(b.wall),
		"setup_s":          median(b.setup),
		"sim_events_per_s": median(b.eventsPerS),
		"peak_rss_mb":      peakRSSMB(),
	}
	out := make(map[string]metricValue, len(endToEnd))
	for _, m := range endToEnd {
		v := vals[m.name]
		if v == 0 {
			b.problem("end-to-end metric %s read 0", m.name)
		}
		out[m.name] = metricValue{v, m.unit}
	}
	return out
}

// layerMetrics combines the workload's counts, the spans and the CPU
// profile split into the per-layer metrics.
func (b *bench) layerMetrics() (map[string]metricValue, error) {
	vals := map[string]float64{}
	for k, v := range b.layer {
		vals[k] = v
	}
	vals["bench.traced_wall_s"] = median(b.wall)
	for k, v := range b.tr.summary() {
		vals[k] = v
	}
	units := float64(b.units)
	if units > 0 {
		allocB := float64(b.ms1.TotalAlloc - b.ms0.TotalAlloc)
		vals["runtime.alloc_mb"] = allocB / units / 1e6
		vals["runtime.mallocs"] = float64(b.ms1.Mallocs-b.ms0.Mallocs) / units
		gcs := (b.ms1.NumGC - b.ms1.NumForcedGC) - (b.ms0.NumGC - b.ms0.NumForcedGC)
		vals["runtime.gc_cycles"] = float64(gcs) / units
		if ev := vals["core.events"]; ev > 0 {
			vals["core.alloc_b_per_event"] = allocB / units / ev
		}
	}
	shares, err := splitProfile(b.cpuProf.Bytes())
	for k, v := range shares {
		vals[k] = v
	}
	out := make(map[string]metricValue, len(perLayer))
	for _, m := range perLayer {
		out[m.name] = metricValue{vals[m.name], m.unit}
	}
	return out, err
}

// buildRevision returns the VCS revision the binary was built from and
// whether the tree was modified, or "unknown" outside a repository.
func buildRevision() (rev, modified string) {
	rev, modified = "unknown", "unknown"
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return
	}
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			modified = s.Value
		}
	}
	return
}

func printJSON(v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", line)
	return err
}

// median returns the middle value of xs (mean of the two middle values
// for an even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first, second and third quartiles of xs with
// the "exclusive" method of Python's statistics.quantiles(xs, n=4), so
// spreads read the same here as in any script that recomputes them.
func quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	n := len(xs)
	if n < 2 {
		return 0, 0, 0, errors.New("need at least two samples")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2], nil
}
