package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/fxrz-go/fxrz/internal/benchfile"
)

// committed returns the recorded BENCH_<suite>.json, parsed.
func committed(t *testing.T, suite string) *benchfile.File {
	t.Helper()
	f, err := validateFile("../../BENCH_" + suite + ".json")
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// clone deep-copies f through JSON so a test may edit it freely.
func clone(t *testing.T, f *benchfile.File) *benchfile.File {
	t.Helper()
	raw, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	out, err := benchfile.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func validateEdited(t *testing.T, f *benchfile.File) error {
	t.Helper()
	raw, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	_, err = benchfile.Validate(raw)
	return err
}

func set(f *benchfile.File, name, unit string, v float64) {
	for i, m := range f.Metrics {
		if m.Name == name && m.Unit == unit {
			f.Metrics[i].Value = v
		}
	}
}

func metric(f *benchfile.File, name, unit string) *benchfile.Metric {
	for i, m := range f.Metrics {
		if m.Name == name && m.Unit == unit {
			return &f.Metrics[i]
		}
	}
	return nil
}

// gateMsg is the prefix of the error a failing gate reports.
func gateMsg(m benchfile.Metric, g benchfile.Gate) string {
	return fmt.Sprintf("%s [%s] gate %v: ", m.Name, m.Unit, g)
}

// pushPast moves the value a gate compares just past its bound: the
// metric's own value for a plain gate, the vs value for a ratio.
func pushPast(f *benchfile.File, m benchfile.Metric, g benchfile.Gate) {
	bound, floor := 0.0, g.Min != nil
	if floor {
		bound = *g.Min
	} else {
		bound = *g.Max
	}
	step := 1e-6 * math.Max(math.Abs(bound), 1)
	q := bound + step
	if floor {
		q = bound - step
	}
	if g.Vs == "" {
		set(f, m.Name, m.Unit, q)
	} else {
		set(f, g.Vs, m.Unit, q*f.Values()[benchfile.Key{Name: m.Name, Unit: m.Unit}])
	}
}

// checkGatesBite moves each gated value in the committed file of suite just
// past its bound and expects validation to fail on that gate. A gate with
// min_cores must be skipped one core below it and fail at it.
func checkGatesBite(t *testing.T, suite string) {
	t.Helper()
	base := committed(t, suite)
	for _, m := range base.Metrics {
		for _, g := range m.Gates {
			if g.MinCores > 0 {
				f := clone(t, base)
				pushPast(f, m, g)
				f.Runner.Cores = g.MinCores - 1
				if err := validateEdited(t, f); err != nil && strings.Contains(err.Error(), gateMsg(m, g)) {
					t.Errorf("%s%v: not skipped at %d cores: %v", gateMsg(m, g), g, f.Runner.Cores, err)
				}
				f.Runner.Cores = g.MinCores
				if err := validateEdited(t, f); err == nil || !strings.Contains(err.Error(), gateMsg(m, g)) {
					t.Errorf("%s: pushed past at %d cores, err = %v", gateMsg(m, g), f.Runner.Cores, err)
				}
				continue
			}
			f := clone(t, base)
			pushPast(f, m, g)
			if err := validateEdited(t, f); err == nil || !strings.Contains(err.Error(), gateMsg(m, g)) {
				t.Errorf("%s: pushed past its bound, err = %v", gateMsg(m, g), err)
			}
		}
	}
}

// checkRejects applies each edit to the committed file of suite and expects
// validation to fail mentioning want.
func checkRejects(t *testing.T, suite string, cases rejectCases) {
	t.Helper()
	base := committed(t, suite)
	for name, tc := range cases {
		f := clone(t, base)
		tc.edit(f)
		if err := validateEdited(t, f); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", name, err, tc.want)
		}
	}
}

type rejectCases = map[string]struct {
	edit func(f *benchfile.File)
	want string
}

// gateOf returns the i-th gate of a metric for editing.
func gateOf(f *benchfile.File, name, unit string, i int) *benchfile.Gate {
	return &metric(f, name, unit).Gates[i]
}

func ptr(v float64) *float64 { return &v }

func TestRecordedBaselinesAreValid(t *testing.T) {
	files, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	suites := map[string]bool{}
	for _, file := range files {
		f, err := validateFile(file)
		if err != nil {
			t.Errorf("recorded %s rejected: %v", file, err)
			continue
		}
		suites[f.Suite] = true
	}
	for _, s := range []string{"train", "kernels", "compress", "serve", "roi", "entropy", "load", "shard"} {
		if !suites[s] {
			t.Errorf("no committed BENCH_%s.json", s)
		}
	}
	for _, s := range []string{"kernels", "load"} {
		checkGatesBite(t, s)
	}
}

func TestRecordedCompressBaselineIsValid(t *testing.T) { checkGatesBite(t, "compress") }
func TestRecordedEntropyBaselineIsValid(t *testing.T)  { checkGatesBite(t, "entropy") }
func TestRecordedRoiBaselineIsValid(t *testing.T)      { checkGatesBite(t, "roi") }
func TestRecordedServeBaselineIsValid(t *testing.T)    { checkGatesBite(t, "serve") }
func TestRecordedShardBaselineIsValid(t *testing.T)    { checkGatesBite(t, "shard") }

func TestValidateRejectsMalformedBaselines(t *testing.T) {
	const head = `"suite":"s","date":"2026-08-05","runner":{"cpu":"c","cores":1,"note":"n"}`
	cases := []struct{ name, blob, want string }{
		{"not json", "nope", "not a valid benchmark file"},
		{"old shape", `{"benchmark":"B","date":"2026-08-05","results":[]}`, `unknown field "benchmark"`},
		{"misspelled gate", `{` + head + `,"metrics":[{"name":"a","unit":"u","value":1,"gates":[{"mni":1}]}]}`, `unknown field "mni"`},
		{"missing suite", `{"date":"2026-08-05","runner":{"cores":1,"note":"n"},"metrics":[{"name":"a","unit":"u","value":1}]}`, `"suite"`},
		{"bad date", `{"suite":"s","date":"05-08-2026","runner":{"cores":1,"note":"n"},"metrics":[{"name":"a","unit":"u","value":1}]}`, "not YYYY-MM-DD"},
		{"no cores", `{"suite":"s","date":"2026-08-05","runner":{"note":"n"},"metrics":[{"name":"a","unit":"u","value":1}]}`, "runner.cores must be > 0"},
		{"no note", `{"suite":"s","date":"2026-08-05","runner":{"cores":1},"metrics":[{"name":"a","unit":"u","value":1}]}`, `"runner.note"`},
		{"no metrics", `{` + head + `,"metrics":[]}`, "metrics is empty"},
		{"no unit", `{` + head + `,"metrics":[{"name":"a","value":1}]}`, "missing name or unit"},
		{"duplicate", `{` + head + `,"metrics":[{"name":"a","unit":"u","value":1},{"name":"a","unit":"u","value":2}]}`, "duplicate metric a [u]"},
		{"min and max", `{` + head + `,"metrics":[{"name":"a","unit":"u","value":1,"gates":[{"min":0,"max":2}]}]}`, "exactly one of min and max"},
		{"no bound", `{` + head + `,"metrics":[{"name":"a","unit":"u","value":1,"gates":[{"vs":"b"}]}]}`, "exactly one of min and max"},
		{"vs unknown", `{` + head + `,"metrics":[{"name":"a","unit":"u","value":1,"gates":[{"min":1,"vs":"b"}]}]}`, `vs "b" names no other metric`},
		{"vs other unit", `{` + head + `,"metrics":[{"name":"a","unit":"u","value":1,"gates":[{"min":1,"vs":"b"}]},{"name":"b","unit":"v","value":1}]}`, `vs "b" names no other metric`},
		{"vs self", `{` + head + `,"metrics":[{"name":"a","unit":"u","value":1,"gates":[{"min":1,"vs":"a"}]}]}`, `vs "a" names no other metric`},
		{"drift 1", `{` + head + `,"metrics":[{"name":"a","unit":"u","value":1,"gates":[{"min":1,"max_drift":1}]}]}`, "max_drift in [0, 1)"},
		{"zero time", `{` + head + `,"metrics":[{"name":"a","unit":"ns/op","value":0}]}`, "must be finite and positive"},
		{"negative count", `{` + head + `,"metrics":[{"name":"a","unit":"count","value":-1}]}`, "must be finite and positive"},
	}
	for _, tc := range cases {
		_, err := benchfile.Validate([]byte(tc.blob))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
	// A file must record the suite its name promises, so renaming the suite
	// cannot shed that suite's pinned gates.
	dir := t.TempDir()
	raw, err := os.ReadFile("../../BENCH_roi.json")
	if err != nil {
		t.Fatal(err)
	}
	for name, wantOK := range map[string]bool{"BENCH_kernels.json": false, "BENCH_roi.json": true, "BENCH_roi_smoke.json": true, "roi.json": true} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := validateFile(path); (err == nil) != wantOK {
			t.Errorf("%s holding suite roi: err = %v, want ok=%v", name, err, wantOK)
		}
	}
}

func TestValidateKernelBaselines(t *testing.T) {
	const fast, table = "BenchmarkKernelQuantize3D/fast", "BenchmarkKernelHuffmanDecode/table"
	checkRejects(t, "kernels", rejectCases{
		"quantize floor lowered": {func(f *benchfile.File) { gateOf(f, fast, "ns/elem", 0).Min = ptr(1.4) }, "pinned gate " + fast},
		"huffman gate deleted":   {func(f *benchfile.File) { metric(f, table, "ns/elem").Gates = nil }, "pinned gate " + table},
		"drift widened":          {func(f *benchfile.File) { gateOf(f, fast, "ns/elem", 0).MaxDrift = 0.2 }, "pinned gate " + fast},
		"kernel dropped": {func(f *benchfile.File) {
			f.Metrics = f.Metrics[:len(f.Metrics)-1]
		}, "pinned gate BenchmarkKernelCAScan/fast"},
		"quantize below floor": {func(f *benchfile.File) { set(f, fast, "ns/elem", 30) }, "below the 1.5 floor"},
	})
	// Tightening is always allowed.
	f := committed(t, "kernels")
	gateOf(f, fast, "ns/elem", 0).Min = ptr(1.6)
	if err := validateEdited(t, f); err != nil {
		t.Errorf("tightened floor rejected: %v", err)
	}
}

func TestValidateCompressBaselines(t *testing.T) {
	const w4 = "BenchmarkCompressPack/sz/w4"
	checkRejects(t, "compress", rejectCases{
		"pack floor lowered":    {func(f *benchfile.File) { gateOf(f, w4, "ns/elem", 1).Min = ptr(1.4) }, "pinned gate " + w4},
		"pack floor cores":      {func(f *benchfile.File) { gateOf(f, w4, "ns/elem", 1).MinCores = 8 }, "pinned gate " + w4},
		"overhead gate deleted": {func(f *benchfile.File) { metric(f, w4, "ns/elem").Gates = metric(f, w4, "ns/elem").Gates[1:] }, "pinned gate " + w4},
		"w4 2x slower than w1":  {func(f *benchfile.File) { set(f, w4, "ns/elem", 2*139.2) }, "below the 0.6666666666666666 floor"},
		"4-core pack floor":     {func(f *benchfile.File) { f.Runner.Cores = 4 }, "below the 1.5 floor"},
	})
	f := committed(t, "compress")
	f.Runner.Cores = 3
	if err := validateEdited(t, f); err != nil {
		t.Errorf("3-core recording must skip the 4-core floors: %v", err)
	}
}

func TestValidateEntropyBaselines(t *testing.T) {
	const w1, w4 = "BenchmarkChunkedDecode/huffman/w1", "BenchmarkChunkedDecode/huffman/w4"
	checkRejects(t, "entropy", rejectCases{
		"blob cap raised":     {func(f *benchfile.File) { gateOf(f, w1, "blob-overhead-frac", 0).Max = ptr(0.02) }, "pinned gate " + w1},
		"w1 overhead deleted": {func(f *benchfile.File) { metric(f, w1, "ns/elem").Gates = nil }, "pinned gate " + w1},
		"w4 floor lowered":    {func(f *benchfile.File) { gateOf(f, w4, "ns/elem", 0).Min = ptr(1.5) }, "pinned gate " + w4},
		"w1 2x serial":        {func(f *benchfile.File) { set(f, w1, "ns/elem", 2*9.674) }, "below the 0.6666666666666666 floor"},
		"blob over cap":       {func(f *benchfile.File) { set(f, w1, "blob-overhead-frac", 0.02) }, "above the 0.01 cap"},
		"4-core w4 floor":     {func(f *benchfile.File) { f.Runner.Cores = 4 }, "below the 2 floor"},
	})
}

func TestValidateRoiBaselines(t *testing.T) {
	const zfp, sz = "BenchmarkRegionDecode/zfp/eighth", "BenchmarkRegionDecode/sz/eighth"
	checkRejects(t, "roi", rejectCases{
		"zfp floor lowered": {func(f *benchfile.File) { gateOf(f, zfp, "ns/op", 0).Min = ptr(3.9) }, "pinned gate " + zfp},
		"idx cap raised":    {func(f *benchfile.File) { gateOf(f, zfp, "idx-frac", 0).Max = ptr(0.02) }, "pinned gate " + zfp},
		"sz floor lowered":  {func(f *benchfile.File) { gateOf(f, sz, "ns/op", 0).Min = ptr(2.4) }, "pinned gate " + sz},
		"zfp below floor":   {func(f *benchfile.File) { set(f, zfp, "ns/op", 6554316/3.9) }, "below the 4 floor"},
	})
}

func TestValidateServeBaselines(t *testing.T) {
	const est, b16 = "BenchmarkServeEstimate/direct", "BenchmarkServeBatchEstimate/b16"
	checkRejects(t, "serve", rejectCases{
		"estimate cap raised": {func(f *benchfile.File) { gateOf(f, est, "ns/op", 0).Max = ptr(9) }, "pinned gate " + est},
		"drift dropped":       {func(f *benchfile.File) { gateOf(f, est, "ns/op", 0).MaxDrift = 0 }, "pinned gate " + est},
		"batch floor lowered": {func(f *benchfile.File) { gateOf(f, b16, "ns/item", 0).Min = ptr(2.9) }, "pinned gate " + b16},
		"step slack widened":  {func(f *benchfile.File) { gateOf(f, b16, "ns/item", 1).Max = ptr(1.3) }, "pinned gate " + b16},
		"unpack step deleted": {func(f *benchfile.File) {
			metric(f, "BenchmarkServeBatchUnpack/b16", "ns/item").Gates = nil
		}, "pinned gate BenchmarkServeBatchUnpack/b16"},
		"http 9x direct": {func(f *benchfile.File) { set(f, "BenchmarkServeEstimate/http", "ns/op", 9*52504) }, "above the 8 cap"},
		"curve bends up": {func(f *benchfile.File) { set(f, "BenchmarkServeBatchPack/b64", "ns/item", 1.3*1450961) }, "above the 1.25 cap"},
	})
}

// loadFile builds a fresh load baseline the way fxrzload writes one.
func loadFile(errors, shed float64, p99 float64) *benchfile.File {
	f := &benchfile.File{Suite: "load", Date: "2026-08-08", Runner: benchfile.Runner{CPU: "c", Cores: 2, Note: "n"}}
	f.Add("requests", "count", 100, benchfile.AtMost(0.25, "shed"))
	f.Add("ok", "count", 100-errors-shed, benchfile.AtLeast(1, ""))
	f.Add("shed", "count", shed)
	f.Add("errors", "count", errors, benchfile.AtMost(0, ""))
	for _, ep := range []string{"estimate", "unpack", "pack"} {
		f.Add(ep+"/ok", "count", 10, benchfile.AtLeast(1, ""))
		f.Add(ep+"/p99_ms", "ms", p99, benchfile.AtMost(40, ""))
	}
	return f
}

func TestValidateLoadAccepts(t *testing.T) {
	if err := validateEdited(t, loadFile(0, 25, 40)); err != nil {
		t.Fatalf("fresh load baseline at its caps rejected: %v", err)
	}
}

func TestValidateLoadRejects(t *testing.T) {
	cases := map[string]struct {
		f    *benchfile.File
		want string
	}{
		"errors":     {loadFile(1, 0, 5), "errors [count] gate max 0"},
		"shed":       {loadFile(0, 26, 5), "requests [count] gate max 0.25 vs shed"},
		"p99":        {loadFile(0, 0, 41), "estimate/p99_ms [ms] gate max 40"},
		"no success": {func() *benchfile.File { f := loadFile(0, 0, 5); set(f, "pack/ok", "count", 0); return f }(), "pack/ok [count] gate min 1"},
	}
	for name, tc := range cases {
		if err := validateEdited(t, tc.f); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", name, err, tc.want)
		}
	}
}

// stripGates removes every gate, leaving only recorded values.
func stripGates(f *benchfile.File) {
	for i := range f.Metrics {
		f.Metrics[i].Gates = nil
	}
}

// TestValidateLoadDispatch: the suite field selects the pinned gates, so a
// load file that sheds its gates fails while the same values under a suite
// with no pins pass.
func TestValidateLoadDispatch(t *testing.T) {
	f := committed(t, "load")
	stripGates(f)
	if err := validateEdited(t, f); err == nil || !strings.Contains(err.Error(), "pinned gate errors [count] max 0") {
		t.Fatalf("gateless load file: err = %v, want the load pins", err)
	}
	f.Suite = "scratch"
	if err := validateEdited(t, f); err != nil {
		t.Fatalf("pin-free suite rejected: %v", err)
	}
}

func TestValidateShardAccepts(t *testing.T) {
	f := &benchfile.File{Suite: "shard", Date: "2026-08-08", Runner: benchfile.Runner{Cores: 1, Note: "n"}}
	for _, run := range []string{"single/", "sharded/"} {
		f.Add(run+"ok", "count", 5, benchfile.AtLeast(1, ""))
		f.Add(run+"errors", "count", 0, benchfile.AtMost(0, ""))
	}
	f.Add("single/item_p50_ms", "ms", 2, benchfile.AtMost(3, "sharded/item_p50_ms"))
	f.Add("sharded/item_p50_ms", "ms", 6)
	if err := validateEdited(t, f); err != nil {
		t.Fatalf("shard baseline at its cap rejected: %v", err)
	}
}

func TestValidateShardRejects(t *testing.T) {
	checkRejects(t, "shard", rejectCases{
		"over cap":       {func(f *benchfile.File) { set(f, "sharded/item_p50_ms", "ms", 3.1*3.716) }, "above the 3 cap"},
		"sharded errors": {func(f *benchfile.File) { set(f, "sharded/errors", "count", 1) }, "sharded/errors [count] gate max 0"},
		"single idle":    {func(f *benchfile.File) { set(f, "single/ok", "count", 0) }, "single/ok [count] gate min 1"},
	})
}

func TestValidateShardDispatch(t *testing.T) {
	f := committed(t, "shard")
	stripGates(f)
	if err := validateEdited(t, f); err == nil || !strings.Contains(err.Error(), "pinned gate sharded/errors") {
		t.Fatalf("gateless shard file: err = %v, want the shard pins", err)
	}
}

func wantParsed(t *testing.T, out string, want map[benchfile.Key]float64) {
	t.Helper()
	got, err := parseBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("parsed %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%v = %v, want %v", k, got[k], v)
		}
	}
}

type key = benchfile.Key

func TestParseBenchLine(t *testing.T) {
	wantParsed(t, `goos: linux
BenchmarkKernelQuantize3D/generic-4  19  11270620 ns/op  93.04 MB/s  42.99 ns/elem
BenchmarkKernelQuantize3D/fast  42  5480697 ns/op  191.32 MB/s  20.91 ns/elem
BenchmarkTrainParallel/workers=8-2  1  250207363 ns/op  0.2496 sweep-s
BenchmarkNoResultYet  some log output
--- FAIL: BenchmarkBroken
PASS`, map[key]float64{
		{Name: "BenchmarkKernelQuantize3D/generic", Unit: "ns/op"}:   11270620,
		{Name: "BenchmarkKernelQuantize3D/generic", Unit: "MB/s"}:    93.04,
		{Name: "BenchmarkKernelQuantize3D/generic", Unit: "ns/elem"}: 42.99,
		{Name: "BenchmarkKernelQuantize3D/fast", Unit: "ns/op"}:      5480697,
		{Name: "BenchmarkKernelQuantize3D/fast", Unit: "MB/s"}:       191.32,
		{Name: "BenchmarkKernelQuantize3D/fast", Unit: "ns/elem"}:    20.91,
		{Name: "BenchmarkTrainParallel/workers=8", Unit: "ns/op"}:    250207363,
		{Name: "BenchmarkTrainParallel/workers=8", Unit: "sweep-s"}:  0.2496,
	})
}

func TestParseEntropyBenchLine(t *testing.T) {
	wantParsed(t, "BenchmarkChunkedDecode/huffman/w4-2  1  9036685 ns/op  232.07 MB/s  0.0000942 blob-overhead-frac  4.309 ns/elem",
		map[key]float64{
			{Name: "BenchmarkChunkedDecode/huffman/w4", Unit: "ns/op"}:              9036685,
			{Name: "BenchmarkChunkedDecode/huffman/w4", Unit: "MB/s"}:               232.07,
			{Name: "BenchmarkChunkedDecode/huffman/w4", Unit: "blob-overhead-frac"}: 0.0000942,
			{Name: "BenchmarkChunkedDecode/huffman/w4", Unit: "ns/elem"}:            4.309,
		})
}

func TestParseRoiBenchLine(t *testing.T) {
	wantParsed(t, "BenchmarkRegionDecode/zfp/eighth-2  1  1870308 ns/op  0.002695 idx-frac",
		map[key]float64{
			{Name: "BenchmarkRegionDecode/zfp/eighth", Unit: "ns/op"}:    1870308,
			{Name: "BenchmarkRegionDecode/zfp/eighth", Unit: "idx-frac"}: 0.002695,
		})
}

func TestParseServeBenchLine(t *testing.T) {
	wantParsed(t, "BenchmarkServeEstimate/http-8  5000  238498 ns/op  12345 B/op  67 allocs/op",
		map[key]float64{
			{Name: "BenchmarkServeEstimate/http", Unit: "ns/op"}:     238498,
			{Name: "BenchmarkServeEstimate/http", Unit: "B/op"}:      12345,
			{Name: "BenchmarkServeEstimate/http", Unit: "allocs/op"}: 67,
		})
}

func TestParseServeBatchBenchLine(t *testing.T) {
	// Per-item cost comes from the benchmark itself; no /bN arithmetic here.
	wantParsed(t, "BenchmarkServeBatchEstimate/b16  100  212592 ns/op  13287 ns/item",
		map[key]float64{
			{Name: "BenchmarkServeBatchEstimate/b16", Unit: "ns/op"}:   212592,
			{Name: "BenchmarkServeBatchEstimate/b16", Unit: "ns/item"}: 13287,
		})
}

// benchOutput renders f's values (scaled per metric by scale) as `go test
// -bench` output, one line per benchmark name.
func benchOutput(f *benchfile.File, scale map[key]float64) string {
	lines := map[string][]string{}
	var names []string
	for _, m := range f.Metrics {
		if _, ok := lines[m.Name]; !ok {
			names = append(names, m.Name)
		}
		v := m.Value
		if s, ok := scale[key{Name: m.Name, Unit: m.Unit}]; ok {
			v *= s
		}
		lines[m.Name] = append(lines[m.Name], strconv.FormatFloat(v, 'g', -1, 64), m.Unit)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s-2  \t 1 \t %s\n", n, strings.Join(lines[n], " "))
	}
	return b.String()
}

// deltas runs -deltas on f's own values, scaled, against the committed file.
func deltas(t *testing.T, suite string, cores int, scale map[key]float64) (string, error) {
	t.Helper()
	var sb strings.Builder
	err := runDeltas(strings.NewReader(benchOutput(committed(t, suite), scale)), &sb, "../../BENCH_"+suite+".json", cores)
	return sb.String(), err
}

func wantDeltas(t *testing.T, name, suite string, cores int, scale map[key]float64, want string) {
	t.Helper()
	out, err := deltas(t, suite, cores, scale)
	switch {
	case want == "" && err != nil:
		t.Errorf("%s: healthy run rejected: %v\n%s", name, err, out)
	case want != "" && (err == nil || !strings.Contains(err.Error(), want)):
		t.Errorf("%s: err = %v, want substring %q", name, err, want)
	}
}

func TestRunDeltasGatesRegressions(t *testing.T) {
	const table = "BenchmarkKernelHuffmanDecode/table"
	out, err := deltas(t, "kernels", 1, nil)
	if err != nil || !strings.Contains(out, "BenchmarkKernelQuantize3D/fast") {
		t.Fatalf("recorded values rejected: %v\n%s", err, out)
	}
	// 1.62x recorded; 1.4x clears the 1.3 floor but drifted > 10%.
	wantDeltas(t, "drift", "kernels", 1, map[key]float64{{Name: table, Unit: "ns/elem"}: 1.62 / 1.4}, "regressed more than 10% below the recorded")
	wantDeltas(t, "floor", "kernels", 1, map[key]float64{{Name: table, Unit: "ns/elem"}: 1.62 / 1.25}, "below the 1.3 floor")
	wantDeltas(t, "within drift", "kernels", 1, map[key]float64{{Name: table, Unit: "ns/elem"}: 1.62 / 1.5}, "")
	wantDeltas(t, "zero divisor", "kernels", 1, map[key]float64{{Name: table, Unit: "ns/elem"}: 0}, "cannot divide BenchmarkKernelHuffmanDecode/bitwise")

	var sb strings.Builder
	missing := strings.Replace(benchOutput(committed(t, "kernels"), nil), "BenchmarkKernelCAScan/fast-2", "BenchmarkKernelCAScan/gone-2", 1)
	err = runDeltas(strings.NewReader(missing), &sb, "../../BENCH_kernels.json", 1)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkKernelCAScan/fast [ns/elem]: missing from the bench output") {
		t.Fatalf("missing metric: err = %v", err)
	}
	if err := runDeltas(strings.NewReader("no bench lines here"), &sb, "../../BENCH_kernels.json", 1); err == nil || !strings.Contains(err.Error(), "no benchmark result lines") {
		t.Fatalf("empty input: err = %v", err)
	}
}

func TestRunDeltasCompress(t *testing.T) {
	const w4 = "BenchmarkCompressPack/sz/w4"
	wantDeltas(t, "1 core", "compress", 1, nil, "")
	out, _ := deltas(t, "compress", 2, nil)
	if !strings.Contains(out, "skipped (2 < 4 cores)") {
		t.Errorf("2-core run does not report the skipped floors:\n%s", out)
	}
	wantDeltas(t, "w4 overhead", "compress", 1, map[key]float64{{Name: w4, Unit: "ns/elem"}: 2}, "below the 0.6666666666666666 floor")
	wantDeltas(t, "4-core floor", "compress", 4, nil, "below the 1.5 floor")
	// Fast enough at width 4 everywhere: unpack 1.2x over its 0.77x record.
	fast := map[key]float64{}
	for _, c := range []string{"Pack/sz", "Pack/zfp", "Unpack/sz", "Unpack/zfp"} {
		fast[key{Name: "BenchmarkCompress" + c + "/w4", Unit: "ns/elem"}] = 0.5
	}
	wantDeltas(t, "4-core healthy", "compress", 4, fast, "")
	fast[key{Name: "BenchmarkCompressUnpack/zfp/w4", Unit: "ns/elem"}] = 1.2
	wantDeltas(t, "4-core drift", "compress", 4, fast, "BenchmarkCompressUnpack/zfp/w4 [ns/elem] gate min 0.6666666666666666 vs BenchmarkCompressUnpack/zfp/w1 min_cores 4 max_drift 0.1: q")
}

func TestRunDeltasEntropy(t *testing.T) {
	const w1, w4 = "BenchmarkChunkedDecode/huffman/w1", "BenchmarkChunkedDecode/huffman/w4"
	wantDeltas(t, "1 core", "entropy", 1, nil, "")
	wantDeltas(t, "4-core floor", "entropy", 4, nil, "below the 2 floor")
	wantDeltas(t, "4-core healthy", "entropy", 4, map[key]float64{{Name: w4, Unit: "ns/elem"}: 0.5}, "")
	wantDeltas(t, "w1 overhead", "entropy", 1, map[key]float64{{Name: w1, Unit: "ns/elem"}: 3}, "below the 0.6666666666666666 floor")
	wantDeltas(t, "blob cap", "entropy", 1, map[key]float64{{Name: w1, Unit: "blob-overhead-frac"}: 200}, "above the 0.01 cap")
}

func TestRunDeltasRoi(t *testing.T) {
	const zfp, sz = "BenchmarkRegionDecode/zfp/eighth", "BenchmarkRegionDecode/sz/eighth"
	wantDeltas(t, "recorded", "roi", 1, nil, "")
	wantDeltas(t, "zfp floor", "roi", 1, map[key]float64{{Name: zfp, Unit: "ns/op"}: 6.16 / 3.9}, "below the 4 floor")
	// No drift gate on region pairs: 2.6x is > 10% under the recorded 2.99x
	// but above the 2.5x floor.
	wantDeltas(t, "sz no drift", "roi", 1, map[key]float64{{Name: sz, Unit: "ns/op"}: 2.99 / 2.6}, "")
}

func TestRunDeltasServe(t *testing.T) {
	const http = "BenchmarkServePack/http"
	wantDeltas(t, "recorded", "serve", 1, nil, "")
	wantDeltas(t, "estimate cap", "serve", 1, map[key]float64{{Name: "BenchmarkServeEstimate/http", Unit: "ns/op"}: 9 / 4.54}, "above the 8 cap")
	// Pack overhead 1.18x recorded; 1.4x is under the 2x cap but > 10% worse.
	wantDeltas(t, "pack drift", "serve", 1, map[key]float64{{Name: http, Unit: "ns/op"}: 1.4 / 1.185}, "regressed more than 10% above the recorded")
}

func TestRunDeltasBatchFloor(t *testing.T) {
	const b16 = "BenchmarkServeBatchEstimate/b16"
	// Recorded 3.6x at batch 16; 2.9x breaks the 3x floor, while 3.1x (> 10%
	// below the record) passes: batch curves carry no drift gate.
	wantDeltas(t, "floor", "serve", 1, map[key]float64{{Name: b16, Unit: "ns/item"}: 3.6 / 2.9}, "below the 3 floor")
	wantDeltas(t, "no drift", "serve", 1, map[key]float64{{Name: b16, Unit: "ns/item"}: 3.6 / 3.1}, "")
	wantDeltas(t, "curve bends up", "serve", 1, map[key]float64{{Name: "BenchmarkServeBatchUnpack/b64", Unit: "ns/item"}: 1.3 * 549045 / 514505}, "above the 1.25 cap")
}
