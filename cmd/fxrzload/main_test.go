package main

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/fxrz-go/fxrz/internal/benchfile"
)

func TestParseFlagsDefaults(t *testing.T) {
	o, err := parseFlags([]string{"-selfserve"})
	if err != nil {
		t.Fatal(err)
	}
	if o.model != "loadtest" {
		t.Errorf("selfserve default model = %q, want loadtest", o.model)
	}
	if o.concurrency != 8 || o.duration != 5*time.Second || o.size != 24 {
		t.Errorf("defaults = %+v", o)
	}
	if o.mix.weights != [numEndpoints]int{90, 5, 5} {
		t.Errorf("default mix = %v", o.mix.weights)
	}
	if o.regionFrac != 0.25 {
		t.Errorf("default region-frac = %g", o.regionFrac)
	}
	if o.target != 0 || o.rate != 0 || o.shedCap != 0 {
		t.Errorf("defaults = %+v", o)
	}
	if o.batch != 1 {
		t.Errorf("default batch = %d, want 1 (single-request mode)", o.batch)
	}
}

func TestParseFlagsRejections(t *testing.T) {
	cases := map[string][]string{
		"no addr, no selfserve":  {},
		"addr plus selfserve":    {"-selfserve", "-addr", "http://x"},
		"remote without model":   {"-addr", "http://x", "-target", "8"},
		"remote without target":  {"-addr", "http://x", "-model", "m"},
		"remote with rate":       {"-addr", "http://x", "-model", "m", "-target", "8", "-rate", "5"},
		"short mix":              {"-selfserve", "-mix", "90:10"},
		"negative mix weight":    {"-selfserve", "-mix", "90:-1:11"},
		"all-zero mix":           {"-selfserve", "-mix", "0:0:0"},
		"zero concurrency":       {"-selfserve", "-concurrency", "0"},
		"zero duration":          {"-selfserve", "-duration", "0s"},
		"region frac over 1":     {"-selfserve", "-region-frac", "1.5"},
		"tiny size":              {"-selfserve", "-size", "1"},
		"negative target":        {"-selfserve", "-target", "-2"},
		"unknown cap endpoint":   {"-selfserve", "-p99-caps", "bogus=1"},
		"non-positive cap":       {"-selfserve", "-p99-caps", "estimate=0"},
		"malformed cap":          {"-selfserve", "-p99-caps", "estimate"},
		"shed cap over 1":        {"-selfserve", "-shed-cap", "2"},
		"negative max-inflight":  {"-selfserve", "-max-inflight", "-1"},
		"negative parallelism":   {"-selfserve", "-parallelism", "-1"},
		"negative selfserv rate": {"-selfserve", "-rate", "-1"},
		"zero batch":             {"-selfserve", "-batch", "0"},
		"zero shards":            {"-selfserve", "-shards", "0"},
		"shards with addr":       {"-addr", "http://x", "-model", "m", "-target", "8", "-shards", "2"},
		"empty addr entry":       {"-addr", "http://x,,http://y", "-model", "m", "-target", "8"},
		"shard-out no selfserve": {"-addr", "http://x", "-model", "m", "-target", "8", "-shard-out", "b.json"},
		"shard-out one shard":    {"-selfserve", "-batch", "4", "-shard-out", "b.json"},
		"shard-out no batch":     {"-selfserve", "-shards", "2", "-shard-out", "b.json"},
		"shard-out plus out":     {"-selfserve", "-shards", "2", "-batch", "4", "-shard-out", "b.json", "-out", "c.json"},
		"negative overhead cap":  {"-selfserve", "-shards", "2", "-batch", "4", "-shard-out", "b.json", "-overhead-cap", "-1"},
	}
	for name, args := range cases {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestParseFlagsMultiAddr(t *testing.T) {
	o, err := parseFlags([]string{"-addr", "http://a:1, http://b:2", "-model", "m", "-target", "8"})
	if err != nil {
		t.Fatal(err)
	}
	if len(o.targets) != 2 || o.targets[0] != "http://a:1" || o.targets[1] != "http://b:2" {
		t.Errorf("targets = %v (whitespace around commas must be trimmed)", o.targets)
	}
}

func TestParseFlagsShardCompare(t *testing.T) {
	o, err := parseFlags([]string{"-selfserve", "-shards", "3", "-batch", "8",
		"-shard-out", "b.json", "-overhead-cap", "2.5"})
	if err != nil {
		t.Fatal(err)
	}
	if o.shards != 3 || o.shardOut != "b.json" || o.overheadCap != 2.5 {
		t.Errorf("shard options = shards=%d shardOut=%q cap=%g", o.shards, o.shardOut, o.overheadCap)
	}
}

func TestParseMix(t *testing.T) {
	m, err := parseMix("90:5:5")
	if err != nil {
		t.Fatal(err)
	}
	if m.sum != 100 || m.weights != [numEndpoints]int{90, 5, 5} {
		t.Errorf("mix = %+v", m)
	}
	// Zero-weight endpoints are legal (pack-free mixes are a real workload)
	// and must never be picked.
	m, err = parseMix("1:1:0")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		if m.pick(rng) == epPack {
			t.Fatal("picked a zero-weight endpoint")
		}
	}
}

func TestMixPickDistribution(t *testing.T) {
	m, err := parseMix("90:5:5")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	var counts [numEndpoints]int
	const n = 20000
	for i := 0; i < n; i++ {
		counts[m.pick(rng)]++
	}
	if frac := float64(counts[epEstimate]) / n; frac < 0.85 || frac > 0.95 {
		t.Errorf("estimate fraction = %.3f, want ~0.90", frac)
	}
	if counts[epUnpack] == 0 || counts[epPack] == 0 {
		t.Errorf("minority endpoints never picked: %v", counts)
	}
}

func TestParseCaps(t *testing.T) {
	caps, err := parseCaps("estimate=5,unpack=80.5,pack=200")
	if err != nil {
		t.Fatal(err)
	}
	if caps["estimate"] != 5 || caps["unpack"] != 80.5 || caps["pack"] != 200 {
		t.Errorf("caps = %v", caps)
	}
	if caps, err := parseCaps(""); err != nil || len(caps) != 0 {
		t.Errorf("empty caps = %v, %v", caps, err)
	}
}

func TestPercentileMS(t *testing.T) {
	if got := percentileMS(nil, 0.99); got != 0 {
		t.Errorf("empty percentile = %g", got)
	}
	if got := percentileMS([]int64{1500}, 0.5); got != 1.5 {
		t.Errorf("single-sample p50 = %g, want 1.5", got)
	}
	// 1..100 microseconds: nearest-rank p50 is the 50th value, p99 the 99th.
	var us []int64
	for i := int64(1); i <= 100; i++ {
		us = append(us, i)
	}
	if got := percentileMS(us, 0.50); got != 0.050 {
		t.Errorf("p50 = %g, want 0.050", got)
	}
	if got := percentileMS(us, 0.99); got != 0.099 {
		t.Errorf("p99 = %g, want 0.099", got)
	}
	if got := percentileMS(us, 1); got != 0.100 {
		t.Errorf("max = %g, want 0.100", got)
	}
}

func TestRegionQuery(t *testing.T) {
	if got := regionQuery([]int{16, 16, 16}); got != "4:12,4:12,4:12" {
		t.Errorf("region = %q", got)
	}
	// Tiny dims still yield a non-empty box.
	if got := regionQuery([]int{2, 3}); got != "0:1,0:1" {
		t.Errorf("region = %q", got)
	}
}

// TestEndToEndSelfServe is the harness smoke test: a short self-serve run
// must produce a clean summary, a parseable baseline whose counts are
// internally consistent, and a CSV with one row per request.
func TestEndToEndSelfServe(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model and drives load")
	}
	dir := t.TempDir()
	out := filepath.Join(dir, "BENCH_load.json")
	csvPath := filepath.Join(dir, "samples.csv")
	err := run([]string{
		"-selfserve", "-duration", "300ms", "-concurrency", "2",
		"-size", "16", "-max-inflight", "4", "-seed", "7",
		"-mix", "60:20:20", "-out", out, "-csv", csvPath,
	}, io.Discard, io.Discard)
	if err != nil {
		t.Fatal(err)
	}

	rep, v := readBaseline(t, out)
	if rep.Suite != "load" || rep.Runner.CPU == "" {
		t.Errorf("header incomplete: suite %q, runner %+v", rep.Suite, rep.Runner)
	}
	requests := v[benchfile.Key{Name: "requests", Unit: "count"}]
	checkCounts(t, v, "", "requests")
	sum := 0.0
	for _, ep := range epNames {
		checkCounts(t, v, ep+"/", "requests")
		ms := func(p string) float64 { return v[benchfile.Key{Name: ep + "/" + p, Unit: "ms"}] }
		if !(ms("p50_ms") > 0 && ms("p50_ms") <= ms("p90_ms") && ms("p90_ms") <= ms("p99_ms") && ms("p99_ms") <= ms("max_ms")) {
			t.Errorf("endpoint %s percentiles not monotone: %v/%v/%v/%v", ep, ms("p50_ms"), ms("p90_ms"), ms("p99_ms"), ms("max_ms"))
		}
		sum += v[benchfile.Key{Name: ep + "/requests", Unit: "count"}]
	}
	if sum != requests {
		t.Errorf("endpoint requests sum %v != load total %v", sum, requests)
	}

	f, err := os.Open(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != int(requests)+1 {
		t.Errorf("csv rows = %d, want %v samples + header", len(rows), requests)
	}
	if strings.Join(rows[0], ",") != "endpoint,status,latency_us" {
		t.Errorf("csv header = %v", rows[0])
	}
}

// TestEndToEndSelfServeBatch drives the same harness through the /v1/*-many
// endpoints: every request carries -batch items, so the per-item sample count
// is a multiple of the batch size and the runner note records the mode.
func TestEndToEndSelfServeBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model and drives load")
	}
	out := filepath.Join(t.TempDir(), "BENCH_load.json")
	const batchN = 4
	err := run([]string{
		"-selfserve", "-duration", "300ms", "-concurrency", "2",
		"-size", "16", "-max-inflight", "4", "-seed", "7",
		"-mix", "60:20:20", "-batch", "4", "-out", out,
	}, io.Discard, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	rep, v := readBaseline(t, out)
	if requests := int(v[benchfile.Key{Name: "requests", Unit: "count"}]); requests%batchN != 0 {
		t.Errorf("per-item samples = %d, not a multiple of batch %d", requests, batchN)
	}
	if !strings.Contains(rep.Runner.Note, "batch=4") || !strings.Contains(rep.Runner.Note, "MaxIdleConnsPerHost") {
		t.Errorf("runner note does not record the batch mode and transport: %q", rep.Runner.Note)
	}
}

// TestEndToEndShardCompare runs the 1-vs-N comparison mode: both runs must be
// clean, the baseline must carry one entry per shard count, and the recorded
// overhead must match the two runs' p50 ratio.
func TestEndToEndShardCompare(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model and drives two clusters")
	}
	out := filepath.Join(t.TempDir(), "BENCH_shard.json")
	err := run([]string{
		"-selfserve", "-shards", "2", "-batch", "4",
		"-duration", "300ms", "-concurrency", "2",
		"-size", "16", "-seed", "7", "-mix", "80:10:10",
		"-shard-out", out,
	}, io.Discard, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	rep, v := readBaseline(t, out)
	var cfg struct{ Shards, Batch int }
	if err := json.Unmarshal(rep.Config, &cfg); err != nil || rep.Suite != "shard" || cfg.Shards != 2 || cfg.Batch != 4 {
		t.Errorf("header incomplete: suite %q, config %s (%v)", rep.Suite, rep.Config, err)
	}
	for _, run := range []string{"single/", "sharded/"} {
		checkCounts(t, v, run, "items")
		p50, p99 := v[benchfile.Key{Name: run + "item_p50_ms", Unit: "ms"}], v[benchfile.Key{Name: run + "item_p99_ms", Unit: "ms"}]
		if !(p50 > 0 && p50 <= p99) {
			t.Errorf("%s percentiles not monotone: %v/%v", run, p50, p99)
		}
	}
}

// readBaseline validates a freshly written baseline exactly as benchguard
// does and returns it with its values.
func readBaseline(t *testing.T, path string) (*benchfile.File, map[benchfile.Key]float64) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := benchfile.Validate(data)
	if err != nil {
		t.Fatalf("fresh baseline rejected: %v\n%s", err, data)
	}
	if rep.Runner.Cores <= 0 || rep.Runner.Note == "" || rep.Date == "" {
		t.Errorf("runner block incomplete: %+v", rep.Runner)
	}
	return rep, rep.Values()
}

// checkCounts asserts one outcome tally adds up and saw traffic.
func checkCounts(t *testing.T, v map[benchfile.Key]float64, prefix, total string) {
	t.Helper()
	c := func(name string) float64 { return v[benchfile.Key{Name: prefix + name, Unit: "count"}] }
	if c(total) == 0 || c(total) != c("ok")+c("shed")+c("errors") {
		t.Errorf("%s counts inconsistent or empty: %s %v != ok %v + shed %v + errors %v",
			prefix, total, c(total), c("ok"), c("shed"), c("errors"))
	}
}
