// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload against the fxrz library and the fxrzd handler, checks
// every output, prints each metric by name and unit with its sample count,
// and ends with one JSON result line:
//
//	perfbench --workload archive --seed 1 --seconds 15 --trace 0
//
// Workloads are archive, serve-mixed and region-read (see BENCHMARK.json
// for why each exists). The metric lists come from the BENCHMARK.json named
// by --benchmark; config.json holds the rest of the settings. --trace 0
// measures the end-to-end metrics; --trace 1 runs the workload untraced and
// then traced, records spans around every call into a layer, prints the
// per-layer metrics and the tracing overhead, and writes the spans to
// <out>/trace-<workload>-seed<n>.jsonl.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "archive, serve-mixed or region-read")
	seed := fs.Int64("seed", 1, "workload seed: picks time steps, targets, arrivals, payload order and region boxes")
	seconds := fs.Float64("seconds", 15, "measured time per run")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer pass")
	out := fs.String("out", ".bench_build", "directory for span files")
	benchmark := fs.String("benchmark", "BENCHMARK.json", "file listing the end-to-end and per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg, err := loadConfig(*benchmark)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want archive, serve-mixed or region-read)\n", *workload)
		return 2
	}
	if !(*seconds > 0) || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	r := &bench{
		cfg:      cfg,
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		traced:   *trace == 1,
		out:      bufio.NewWriter(stdout),
		metrics:  map[string]metric{},
		causes:   map[string]int{},
		outDir:   *out,
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	defer r.out.Flush()
	if r.traced {
		r.tr = newTracer()
	}
	if err := run(r); err != nil {
		r.out.Flush()
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if r.traced {
		path := filepath.Join(*out, fmt.Sprintf("trace-%s-seed%d.jsonl", *workload, *seed))
		if err := writeSpans(path, r.tr.snapshot()); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		r.printf("spans: %d written to %s", len(r.tr.snapshot()), path)
	}
	if !r.finish() {
		return 1
	}
	return 0
}

var workloads = map[string]func(*bench) error{
	"archive":     runArchive,
	"serve-mixed": runServeMixed,
	"region-read": runRegionRead,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench is one run's state: settings, the report, the op accounting and the
// metrics of the result line.
type bench struct {
	cfg      config
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	tr       *tracer // nil unless traced
	out      *bufio.Writer

	attempted, failed int
	causes            map[string]int
	metrics           map[string]metric
	fieldBytes        int64
	outDir            string
}

func (r *bench) printf(format string, args ...any) {
	fmt.Fprintf(r.out, format+"\n", args...)
}

// op counts one attempted operation; a non-nil err counts it as failed,
// with the error text as its cause.
func (r *bench) op(err error) {
	r.attempted++
	if err == nil {
		return
	}
	r.failed++
	cause := err.Error()
	if r.causes[cause] == 0 && len(r.causes) < 20 {
		r.printf("FAIL %s", cause)
	}
	r.causes[cause]++
}

// unitOf finds a metric's unit in the configured lists.
func (r *bench) unitOf(name string) string {
	for _, list := range [][]metricSpec{r.cfg.EndToEnd, r.cfg.PerLayer} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}

// e2e reports an end-to-end metric; it enters the result line only in an
// untraced run.
func (r *bench) e2e(name string, v float64, n int, note string) {
	r.printf("e2e   %-24s %14.6g %-6s n=%d %s", name, v, r.unitOf(name), n, note)
	if !r.traced {
		r.metrics[name] = metric{Value: v, Unit: r.unitOf(name)}
	}
}

// layer reports a per-layer metric with the end-to-end figures it should
// move; it enters the result line only in a traced run.
func (r *bench) layer(name string, v float64, n int, note string) {
	if moves := r.cfg.Moves[name]; len(moves) > 0 {
		note += " moves " + strings.Join(moves, ",")
	}
	r.printf("layer %-40s %14.6g %-6s n=%d %s", name, v, r.unitOf(name), n, note)
	if r.traced {
		r.metrics[name] = metric{Value: v, Unit: r.unitOf(name)}
	}
}

// info prints a metric that the report carries but the result line does not.
func (r *bench) info(name string, v float64, unit string, n int, note string) {
	r.printf("info  %-40s %14.6g %-6s n=%d %s", name, v, unit, n, note)
}

// setupReps runs fn cfg.SetupReps times and reports the median wall time as
// setup_s; it returns the last repetition's state. A non-nil release is
// called on each earlier repetition's state before the next one starts, off
// the clock, so only one set-up is alive at a time.
func setupReps[T any](r *bench, fn func() (T, error), release func(T)) (T, error) {
	var last T
	var times []float64
	for i := 0; i < r.cfg.SetupReps; i++ {
		if i > 0 && release != nil {
			release(last)
		}
		runtime.GC()
		t0 := time.Now()
		v, err := fn()
		if err != nil {
			return last, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		last = v
	}
	r.e2e("setup_s", plainMedian(times), len(times), fmt.Sprintf("(median of %d set-ups %v)", len(times), fmtFloats(times)))
	return last, nil
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// finish prints the runner record and the result line, and reports whether
// the run was correct.
func (r *bench) finish() bool {
	if !r.traced {
		r.e2e("peak_rss_mb", peakRSSMB(), 1, "(VmHWM of this process, input generation included)")
	}
	want := r.cfg.EndToEnd
	if r.traced {
		want = r.cfg.PerLayer
	}
	for _, m := range want {
		if _, ok := r.metrics[m.Name]; !ok {
			r.op(fmt.Errorf("metric %s was not measured", m.Name))
		}
	}
	if r.attempted == 0 {
		r.op(fmt.Errorf("no operation was attempted"))
	}
	r.printf("fail_frac %.6g (failed %d of %d attempted ops)", float64(r.failed)/float64(r.attempted), r.failed, r.attempted)
	causes := make([]string, 0, len(r.causes))
	for c := range r.causes {
		causes = append(causes, c)
	}
	sort.Strings(causes)
	for _, c := range causes {
		r.printf("failed check x%d: %s", r.causes[c], c)
	}
	rec, _ := json.Marshal(runnerRecord(r.fieldBytes))
	r.printf("runner %s", rec)
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, r.metrics}
	line, _ := json.Marshal(res)
	r.printf("%s", line)
	return res.Correct
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb * 1024 / 1e6
			}
		}
	}
	return 0
}

// runnerRecord describes the machine a result came from.
func runnerRecord(fieldBytes int64) map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "model name") {
				if i := strings.IndexByte(line, ':'); i >= 0 {
					cpu = strings.TrimSpace(line[i+1:])
				}
				break
			}
		}
	}
	cache := func(idx int) string {
		b, err := os.ReadFile(fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/size", idx))
		if err != nil {
			return "unknown"
		}
		return strings.TrimSpace(string(b))
	}
	l3 := cache(3)
	return map[string]any{
		"cpu":         cpu,
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go":          runtime.Version(),
		"l2":          cache(2),
		"l3":          l3,
		"field_bytes": fieldBytes,
		"note": "bytes and MB/s are computed from array sizes, not measured traffic; fields cannot be made 4x the shared L3 (" + l3 +
			") here, so no memory-bandwidth roofline is implied",
	}
}
