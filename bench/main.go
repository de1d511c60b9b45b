// Command drange-bench is the repository's benchmark. It runs one workload
// (or all of them) against the public drange API, checks the outputs, and
// prints every metric with its unit; the last line of standard output is a
// JSON object {"correct", "attempted", "failed", "metrics"}.
//
// With -trace 0 it reports the end-to-end metrics, measured with tracing
// off. With -trace 1 it reports the per-layer metrics instead: CPU and
// blocking profiles grouped by module, spans around the benchmark's own
// layer-by-layer replays of the workload's inputs, the program's own
// counters, and the tracing overhead. See README.md for the metric map.
//
//	bash bench/run.sh --workload drbg-mixed --seed 7 --seconds 10 --trace 0
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run: characterize, drbg-mixed or all")
		seed    = flag.Uint64("seed", defaultSeed, "workload seed: derives every device serial, hence process variation, noise and the faulty-backend salt")
		seconds = flag.Int("seconds", 10, "length of the timed phase in seconds")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
		out     = flag.String("out", ".bench_build", "directory for run records and span files")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "drange-bench: -seconds must be at least 1 and -trace 0 or 1")
		os.Exit(2)
	}
	var ws []*workload
	if *name == "all" {
		ws = workloads
	} else if w := workloadByName(*name); w != nil {
		ws = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "drange-bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	meta := runMeta()
	fmt.Printf("# meta %s\n", mustJSON(meta))

	final := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range ws {
		res := execute(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out, meta)
		names := make([]string, 0, len(res.Metrics))
		for k := range res.Metrics {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Printf("%-14s %-34s %14.6g %s\n", w.name, k, res.Metrics[k].Value, res.Metrics[k].Unit)
			key := k
			if len(ws) > 1 {
				key = w.name + "/" + k
			}
			final.Metrics[key] = res.Metrics[k]
		}
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed
	}
	fmt.Println(mustJSON(final))
	if !final.Correct {
		os.Exit(1)
	}
}

// execute runs one workload and returns its result line.
func execute(w *workload, seed uint64, seconds time.Duration, traced bool, out string, meta map[string]any) result {
	ctx := context.Background()
	r := &runner{w: w, seed: seed, seconds: seconds, devs: w.devices(serialBase(seed))}
	var tr *tracer
	var cpu bytes.Buffer
	if traced {
		tr = newTracer()
		runtime.SetBlockProfileRate(10_000)
		if err := pprof.StartCPUProfile(&cpu); err != nil {
			r.fail("cpu profile: %v", err)
		}
	}
	res := result{Metrics: map[string]metric{}}
	src, err := r.setup(ctx, tr.buf())
	if err != nil {
		r.fail("set-up: %v", err)
		if traced {
			pprof.StopCPUProfile()
		}
		return r.finish(res, out, traced, meta, nil, nil)
	}
	ph := r.runPhase(ctx, src, tr)
	if traced {
		pprof.StopCPUProfile()
		var block bytes.Buffer
		if err := pprof.Lookup("block").WriteTo(&block, 0); err != nil {
			r.fail("block profile: %v", err)
		}
		runtime.SetBlockProfileRate(0)
		// The same phase again, untraced, gives the tracing overhead.
		plain := r.runPhase(ctx, src, nil)
		sample := append(append([]byte(nil), ph.raw.sample...), ph.drbg.sample...)
		if err := r.replays(ctx, tr, sample); err != nil {
			r.fail("layer replay: %v", err)
		}
		r.check(ph)
		layerMetrics(res.Metrics, r, ph, plain, tr.collect(), &cpu, &block)
	} else {
		r.check(ph)
		e2eMetrics(res.Metrics, r, ph)
	}
	if src != nil {
		r.ops.record(src.Close())
	}
	return r.finish(res, out, traced, meta, tr, ph)
}

// finish fills the result's accounting and writes the run record.
func (r *runner) finish(res result, out string, traced bool, meta map[string]any, tr *tracer, ph *phase) result {
	res.Attempted = r.ops.attempted.Load()
	res.Failed = r.ops.failed.Load()
	if res.Attempted == 0 {
		res.Attempted = 1
		res.Failed = 1
	}
	res.Correct = len(r.failures) == 0 && res.Failed == 0
	for _, f := range r.failures {
		fmt.Fprintf(os.Stderr, "drange-bench: %s: check failed: %s\n", r.w.name, f)
	}
	stem := filepath.Join(out, "runs", fmt.Sprintf("%s-seed%d-trace%d", r.w.name, r.seed, b2i(traced)))
	if err := os.MkdirAll(filepath.Dir(stem), 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "drange-bench: %v\n", err)
		return res
	}
	checksums := make([]string, len(r.profiles))
	for i, p := range r.profiles {
		checksums[i] = p.Checksum
	}
	record := map[string]any{
		"meta": meta, "workload": r.w.name, "why": r.w.why, "seed": r.seed,
		"seconds": r.seconds.Seconds(), "traced": traced, "result": res,
		"setup_s": r.setupS, "characterize_s": r.charS, "checksums": checksums,
		"failures": r.failures,
	}
	if ph != nil {
		pins := make([][2]float64, len(ph.pins))
		for i, p := range ph.pins {
			pins[i] = [2]float64{p.mbps, p.lat64NS}
		}
		record["sim_mbps_latency64_ns"] = pins
		record["requests"] = map[string]int{"raw": len(ph.raw.lat), "drbg": len(ph.drbg.lat), "open": len(r.opens) + len(ph.opens)}
	}
	if err := os.WriteFile(stem+".json", []byte(mustJSON(record)+"\n"), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "drange-bench: %v\n", err)
	}
	if tr != nil {
		if err := writeSpans(stem+".spans.jsonl.gz", tr.collect()); err != nil {
			fmt.Fprintf(os.Stderr, "drange-bench: writing spans: %v\n", err)
		}
	}
	return res
}

// tailLadder is the percentiles a tail may be reported at.
var tailLadder = []float64{90, 99, 99.9}

// primary is the tier latency-sensitive callers of the workload use: the
// DRBG tier where the source serves one, else the raw tier.
func (r *runner) primary(ph *phase) *tier {
	if r.w.drbg {
		return &ph.drbg
	}
	return &ph.raw
}

// readPercentiles returns the primary tier's p50 and p90 in ms, and the
// highest tail of tailLadder with minBeyond samples beyond it (level 0 when
// the run has too few requests for any).
func (r *runner) readPercentiles(ph *phase) (p50, p90, level, tail float64) {
	t := r.primary(ph)
	if len(t.lat) == 0 {
		return math.NaN(), math.NaN(), 0, math.NaN()
	}
	s := sortedCopy(t.lat)
	if l, ok := tailLevel(len(s), tailLadder); ok {
		level, tail = l, percentile(s, l)
	}
	return percentile(s, 50), percentile(s, 90), level, tail
}

// e2eMetrics fills the end-to-end metrics of an untraced run.
func e2eMetrics(m map[string]metric, r *runner, ph *phase) {
	p50, p90, level, tail := r.readPercentiles(ph)
	fmt.Printf("# %s: p%g %.6g ms over %d requests\n", r.w.name, level, tail, len(r.primary(ph).lat))
	wall := ph.wall.Seconds()
	put(m, "setup_s", median(r.setupS), "s")
	put(m, "open_ms", median(append(append([]float64(nil), r.opens...), ph.opens...)), "ms")
	put(m, "read_MBps", float64(r.primary(ph).bytes)/wall/1e6, "MB/s")
	put(m, "read_p50_ms", p50, "ms")
	put(m, "read_p90_ms", p90, "ms")
	put(m, "raw_MBps", float64(ph.raw.bytes)/wall/1e6, "MB/s")
}

// layerModules are the modules whose CPU time is reported; waitModules those
// whose blocking time is.
var (
	layerModules = []string{"dram", "memctrl", "timing", "pattern", "profiler", "core", "health", "drbg", "drange", "runtime"}
	waitModules  = []string{"dram", "memctrl", "core", "drange"}
)

// layerMetrics fills the per-layer metrics of a traced run.
func layerMetrics(m map[string]metric, r *runner, ph, plain *phase, spans []span, cpu, block *bytes.Buffer) {
	if p, err := parseProfile(cpu.Bytes()); err != nil {
		r.fail("cpu profile: %v", err)
	} else {
		g := groupSeconds(p, 1, cpuModule)
		for _, mod := range layerModules {
			put(m, mod+".cpu_s", g[mod], "s")
		}
	}
	if p, err := parseProfile(block.Bytes()); err != nil {
		r.fail("block profile: %v", err)
	} else {
		g := groupSeconds(p, 1, lockWait)
		for _, mod := range waitModules {
			put(m, mod+".wait_s", g[mod], "s")
		}
	}

	self := selfByName(spans)
	med := func(name string, scale float64) float64 { return median(self[name]) * scale }
	kibPerRead := float64(readSize) / 1024
	put(m, "pattern.fillrow_us", med("pattern.FillRow", 1e6), "us")
	put(m, "profiler.run_bank_ms", med("profiler.Run", 1e3), "ms")
	put(m, "core.identify_bank_ms", med("core.IdentifyRNGCells", 1e3), "ms")
	put(m, "core.engine_read_ms_per_kib", med("core.Read", 1e3)/kibPerRead, "ms")
	put(m, "health.ingest_us_per_kib", med("health.IngestPacked", 1e6)/kibPerRead, "us")
	put(m, "drbg.generate_us_per_kib", med("drbg.Generate", 1e6)/kibPerRead, "us")
	inner := med("core.Read", 1e6)
	if r.w.drbg {
		inner = med("drbg.Generate", 1e6)
	}
	tp50, _, _, _ := r.readPercentiles(ph)
	put(m, "drange.overhead_us_per_kib", (tp50*1e3-inner)/kibPerRead, "us")
	var benchSelf float64
	for _, name := range []string{"phase", "client"} {
		for _, s := range self[name] {
			benchSelf += s
		}
	}
	put(m, "bench.self_s", benchSelf, "s")

	kib := float64(ph.raw.bytes+ph.drbg.bytes) / 1024
	c := ph.counts
	put(m, "dram.activates_per_kib", float64(ph.devOps.Activates)/kib, "count")
	put(m, "dram.reads_per_kib", float64(ph.devOps.Reads)/kib, "count")
	put(m, "dram.injected_flips_per_kib", float64(ph.devOps.InjectedFlips)/kib, "count")
	put(m, "memctrl.sim_ns_per_kib", c.simNS/kib, "ns")
	put(m, "core.harvest_efficiency", ratio(float64(c.rawBytes*8), float64(c.harvested)), "ratio")
	put(m, "health.trips", float64(c.trips), "count")
	put(m, "health.credited_bits_per_kib", float64(c.credited)/kib, "count")
	put(m, "drbg.reseeds_per_mib", ratio(float64(c.reseeds), float64(c.drbgBytes)/(1<<20)), "count")

	up50, _, _, _ := r.readPercentiles(plain)
	tMBps := float64(r.primary(ph).bytes) / ph.wall.Seconds()
	uMBps := float64(r.primary(plain).bytes) / plain.wall.Seconds()
	put(m, "trace.read_p50_overhead_pct", 100*(tp50-up50)/up50, "%")
	put(m, "trace.read_MBps_overhead_pct", 100*(uMBps-tMBps)/uMBps, "%")
}

// put records a metric; a value that could not be measured (no samples) is
// reported as 0, which per-layer readers take as "not exercised".
func put(m map[string]metric, name string, v float64, unit string) {
	switch {
	case math.IsNaN(v):
		v = 0
	case math.IsInf(v, 0):
		v = math.Copysign(math.MaxFloat64, v)
	}
	m[name] = metric{Value: v, Unit: unit}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// serialBase derives the first device serial from the seed (SplitMix64,
// kept to 40 bits so serials stay readable in records).
func serialBase(seed uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return (z ^ (z >> 31)) & (1<<40 - 1)
}

// runMeta describes the host and build the run measured.
func runMeta() map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
			if s.Key == "vcs.modified" && s.Value == "true" {
				commit += "+dirty"
			}
		}
	}
	return map[string]any{
		"cpu": cpuModel(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": commit,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}
