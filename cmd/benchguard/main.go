// Command benchguard keeps the recorded benchmark baselines machine-readable
// and honest across PRs. Every BENCH_*.json has the one shape described in
// internal/benchfile: a list of metrics, some carrying gates.
//
//	benchguard BENCH_*.json
//
// validates each file: its structure, the merge-time gates its suite must
// still carry, and every gate on the file's own values at the recording
// runner's core count.
//
// With -deltas it instead reads `go test -bench` output on stdin, takes every
// "value unit" pair on every benchmark line, and evaluates
// the baseline's gates on the fresh values at this machine's core count,
// including the max_drift bounds against the recorded values. It fails when a
// gate fails or a baseline metric is missing from the input. Gates bound
// ratios measured within one run, so they are meaningful even when this
// machine differs from the one that recorded the baseline.
//
//	go test -run '^$' -bench BenchmarkKernel ./... | benchguard -deltas -baseline BENCH_kernels.json
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"

	"github.com/fxrz-go/fxrz/internal/benchfile"
)

var procSuffix = regexp.MustCompile(`-\d+$`)

// parseBench reads `go test -bench` output and returns every "value unit"
// pair on every benchmark result line, keyed by the benchmark name without
// its -N GOMAXPROCS suffix. A name seen twice keeps its last values.
func parseBench(r io.Reader) (map[benchfile.Key]float64, error) {
	values := map[benchfile.Key]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(fields[1]); err != nil {
			continue // not a result line: no iteration count
		}
		name := procSuffix.ReplaceAllString(fields[0], "")
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
				break
			}
			values[benchfile.Key{Name: name, Unit: fields[i+1]}] = v
		}
	}
	return values, sc.Err()
}

// validateFile validates one recorded file. A file named BENCH_<x>.json must
// record suite x (or x must start with "<suite>_"), so renaming the suite
// cannot shed the pinned gates of the file it stands in for.
func validateFile(path string) (*benchfile.File, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f, err := benchfile.Validate(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if x, ok := strings.CutPrefix(strings.TrimSuffix(filepath.Base(path), ".json"), "BENCH_"); ok && x != f.Suite && !strings.HasPrefix(x, f.Suite+"_") {
		return nil, fmt.Errorf("%s: records suite %q, want %q", path, f.Suite, x)
	}
	return f, nil
}

// runDeltas implements -deltas: gate fresh bench output against the recorded
// baseline at the given core count and print each metric and gate.
func runDeltas(in io.Reader, out io.Writer, baselinePath string, cores int) error {
	measured, err := parseBench(in)
	if err != nil {
		return err
	}
	if len(measured) == 0 {
		return fmt.Errorf("no benchmark result lines found on stdin")
	}
	base, err := validateFile(baselinePath)
	if err != nil {
		return err
	}
	var failures []string
	for _, m := range base.Metrics {
		if _, ok := measured[benchfile.Key{Name: m.Name, Unit: m.Unit}]; !ok {
			failures = append(failures, fmt.Sprintf("%s [%s]: missing from the bench output", m.Name, m.Unit))
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("%s", strings.Join(failures, "; "))
	}

	outcomes := base.Check(measured, cores, true)
	fmt.Fprintf(out, "%-44s %-18s %14s %14s\n", "metric", "unit", "recorded", "measured")
	for _, m := range base.Metrics {
		k := benchfile.Key{Name: m.Name, Unit: m.Unit}
		fmt.Fprintf(out, "%-44s %-18s %14.6g %14.6g\n", m.Name, m.Unit, m.Value, measured[k])
		for _, o := range outcomes {
			if o.Metric != k {
				continue
			}
			status := fmt.Sprintf("q %.4g ok", o.Q)
			switch {
			case o.Skipped:
				status = fmt.Sprintf("skipped (%d < %d cores)", cores, o.Gate.MinCores)
			case o.Err != nil:
				status = fmt.Sprintf("q %.4g FAIL", o.Q)
				failures = append(failures, o.Err.Error())
			}
			fmt.Fprintf(out, "    gate %v: %s\n", o.Gate, status)
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("%s", strings.Join(failures, "; "))
	}
	return nil
}

func main() {
	deltas := flag.Bool("deltas", false, "read `go test -bench` output on stdin and gate it against -baseline")
	baseline := flag.String("baseline", "", "with -deltas (required): recorded BENCH_*.json whose gates the fresh values must pass")
	flag.Parse()

	if *deltas {
		if *baseline == "" {
			fmt.Fprintln(os.Stderr, "benchguard: -deltas needs -baseline BENCH_<suite>.json")
			os.Exit(2)
		}
		if err := runDeltas(os.Stdin, os.Stdout, *baseline, runtime.NumCPU()); err != nil {
			fmt.Fprintln(os.Stderr, "benchguard:", err)
			os.Exit(1)
		}
		return
	}
	files := flag.Args()
	if len(files) == 0 {
		fmt.Fprintln(os.Stderr, "benchguard: no baseline files given (usage: benchguard FILE...)")
		os.Exit(1)
	}
	for _, file := range files {
		if _, err := validateFile(file); err != nil {
			fmt.Fprintln(os.Stderr, "benchguard:", err)
			os.Exit(1)
		}
		fmt.Printf("benchguard: %s ok\n", file)
	}
}
