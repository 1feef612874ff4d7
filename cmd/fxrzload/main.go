// Command fxrzload is the load generator for fxrzd: it drives a mixed
// estimate/unpack/pack workload at fixed concurrency for a fixed duration and
// reports per-endpoint latency percentiles (p50/p90/p99/max), shed counts,
// and throughput. It is the measurement half of the serving-hardening story —
// the QoS classes and rate limits in fxrzd are only claims until a saturating
// mixed workload shows estimates completing while packs shed.
//
// Three modes:
//
//	fxrzload -addr http://host:8080 -model nyx-sz -target 8    # external fxrzd
//	fxrzload -selfserve -duration 10s -out BENCH_load.json     # in-process fxrzd
//	fxrzload -selfserve -shards 2 -batch 8 -shard-out BENCH_shard.json
//	                                                           # 1-vs-N shard compare
//
// -selfserve trains a small model once, mounts a real fxrzd handler on a
// loopback listener, and aims the workload at it — the mode CI uses, no
// daemon required. -rate, -max-inflight and -parallelism shape that server.
// -shards N mounts N such instances peered into one static shard ring;
// -addr also accepts a comma-separated list of bases, and in both cases the
// workers round-robin across the targets. -shard-out runs the same batch
// workload against one instance and then a -shards ring and records the
// amortized per-item latency both ways plus the sharded/single p50 overhead
// ratio — the measured price of scatter-gather fan-out.
//
// The mix is -mix "estimate:unpack:pack" weights; -region-frac turns that
// fraction of unpack requests into region (partial) decodes. -batch N (N > 1)
// aims the same mix at the /v1/*-many endpoints, N items per request, and
// records amortized per-item latencies — the knob that measures how much
// batching buys under the same concurrency. Each worker is its own
// rate-limiter client (load-<n> via X-Fxrz-Client). The summary is
// written as a load baseline in the one BENCH_*.json shape benchguard
// validates (-out), optionally with per-request samples as CSV (-csv);
// -p99-caps, -shed-cap and -overhead-cap become gates in the baseline so the
// gate travels with the measurement.
package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	fxrz "github.com/fxrz-go/fxrz"
	"github.com/fxrz-go/fxrz/internal/batch"
	"github.com/fxrz-go/fxrz/internal/benchfile"
	"github.com/fxrz-go/fxrz/internal/datagen"
	"github.com/fxrz-go/fxrz/internal/fieldio"
	"github.com/fxrz-go/fxrz/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "fxrzload:", err)
		os.Exit(1)
	}
}

// The workload endpoints, in mix order.
const (
	epEstimate = iota
	epUnpack
	epPack
	numEndpoints
)

var epNames = [numEndpoints]string{"estimate", "unpack", "pack"}

// mixSpec is the parsed -mix: integer weights per endpoint.
type mixSpec struct {
	weights [numEndpoints]int
	sum     int
	raw     string
}

// parseMix reads "estimate:unpack:pack" integer weights (e.g. "90:5:5").
func parseMix(s string) (mixSpec, error) {
	parts := strings.Split(s, ":")
	if len(parts) != numEndpoints {
		return mixSpec{}, fmt.Errorf("mix %q must be %d colon-separated weights (estimate:unpack:pack)", s, numEndpoints)
	}
	var m mixSpec
	m.raw = s
	for i, p := range parts {
		w, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || w < 0 {
			return mixSpec{}, fmt.Errorf("mix weight %q must be a non-negative integer", p)
		}
		m.weights[i] = w
		m.sum += w
	}
	if m.sum == 0 {
		return mixSpec{}, fmt.Errorf("mix %q has no traffic: at least one weight must be > 0", s)
	}
	return m, nil
}

// pick draws an endpoint index with probability proportional to its weight.
func (m mixSpec) pick(rng *rand.Rand) int {
	n := rng.Intn(m.sum)
	for i, w := range m.weights {
		if n < w {
			return i
		}
		n -= w
	}
	return numEndpoints - 1
}

// parseCaps reads "-p99-caps estimate=5,unpack=80,pack=200" (milliseconds).
func parseCaps(s string) (map[string]float64, error) {
	caps := map[string]float64{}
	if s == "" {
		return caps, nil
	}
	for _, kv := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return nil, fmt.Errorf("p99 cap %q must be endpoint=milliseconds", kv)
		}
		known := false
		for _, ep := range epNames {
			known = known || name == ep
		}
		if !known {
			return nil, fmt.Errorf("p99 cap names unknown endpoint %q (want one of %v)", name, epNames[:])
		}
		ms, err := strconv.ParseFloat(val, 64)
		if err != nil || !(ms > 0) {
			return nil, fmt.Errorf("p99 cap for %s must be a positive millisecond value, got %q", name, val)
		}
		caps[name] = ms
	}
	return caps, nil
}

// options is the parsed flag set.
type options struct {
	addr        string
	targets     []string // parsed -addr entries (round-robin across workers)
	selfserve   bool
	shards      int
	shardOut    string
	overheadCap float64
	model       string
	target      float64
	concurrency int
	duration    time.Duration
	mix         mixSpec
	regionFrac  float64
	size        int
	seed        int64
	csvPath     string
	outPath     string
	caps        map[string]float64
	shedCap     float64
	note        string
	rate        float64
	maxInFlight int
	parallelism int
	batch       int
}

// parseFlags validates the command line into options.
func parseFlags(args []string) (options, error) {
	var o options
	var mixStr, capsStr string
	fs := flag.NewFlagSet("fxrzload", flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", "", "base URL(s) of running fxrzd instance(s), comma-separated; workers round-robin across them")
	fs.BoolVar(&o.selfserve, "selfserve", false, "train a small model and serve it in-process instead of -addr")
	fs.IntVar(&o.shards, "shards", 1, "selfserve: number of in-process instances peered into one shard ring")
	fs.StringVar(&o.shardOut, "shard-out", "", "selfserve batch mode: drive 1 shard and then -shards shards, write the comparison baseline (JSON) to this file")
	fs.Float64Var(&o.overheadCap, "overhead-cap", 0, "max tolerated sharded/single per-item p50 ratio recorded into the shard baseline (0 = none)")
	fs.StringVar(&o.model, "model", "", "model ID to drive (default \"loadtest\" with -selfserve)")
	fs.Float64Var(&o.target, "target", 0, "target compression ratio (0 with -selfserve = middle of the model's valid range)")
	fs.IntVar(&o.concurrency, "concurrency", 8, "concurrent workers, each a distinct rate-limiter client")
	fs.DurationVar(&o.duration, "duration", 5*time.Second, "how long to drive the workload")
	fs.StringVar(&mixStr, "mix", "90:5:5", "estimate:unpack:pack traffic weights")
	fs.Float64Var(&o.regionFrac, "region-frac", 0.25, "fraction of unpack requests that decode a region (partial decode)")
	fs.IntVar(&o.size, "size", 24, "per-dimension size of the cubic workload field")
	fs.Int64Var(&o.seed, "seed", 1, "base RNG seed (worker k uses seed+k)")
	fs.StringVar(&o.csvPath, "csv", "", "write per-request samples (endpoint,status,latency_us) to this CSV file")
	fs.StringVar(&o.outPath, "out", "", "write the benchguard load baseline (JSON) to this file")
	fs.StringVar(&capsStr, "p99-caps", "", "per-endpoint p99 caps in ms recorded into the baseline (e.g. estimate=5,unpack=80,pack=200)")
	fs.Float64Var(&o.shedCap, "shed-cap", 0, "max tolerated overall shed fraction recorded into the baseline (0 = none)")
	fs.StringVar(&o.note, "note", "", "extra runner note appended to the baseline")
	fs.Float64Var(&o.rate, "rate", 0, "selfserve: per-client rate limit in req/s (0 = off)")
	fs.IntVar(&o.maxInFlight, "max-inflight", 0, "selfserve: admission slots (0 = worker budget)")
	fs.IntVar(&o.parallelism, "parallelism", 0, "selfserve: intra-field worker budget (0 = all cores, 1 = serial)")
	fs.IntVar(&o.batch, "batch", 1, "items per request: > 1 drives the /v1/*-many batch endpoints with amortized per-item latencies")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	var err error
	if o.mix, err = parseMix(mixStr); err != nil {
		return o, err
	}
	if o.caps, err = parseCaps(capsStr); err != nil {
		return o, err
	}
	if o.selfserve {
		if o.addr != "" {
			return o, fmt.Errorf("-selfserve and -addr are mutually exclusive")
		}
		if o.model == "" {
			o.model = "loadtest"
		}
	} else {
		if o.addr == "" {
			return o, fmt.Errorf("either -addr or -selfserve is required")
		}
		for _, a := range strings.Split(o.addr, ",") {
			a = strings.TrimSpace(a)
			if a == "" {
				return o, fmt.Errorf("-addr %q has an empty entry", o.addr)
			}
			o.targets = append(o.targets, a)
		}
		if o.model == "" {
			return o, fmt.Errorf("-model is required without -selfserve")
		}
		if !(o.target > 0) {
			return o, fmt.Errorf("-target must be > 0 without -selfserve (no model to derive it from)")
		}
		if o.rate != 0 || o.maxInFlight != 0 || o.parallelism != 0 {
			return o, fmt.Errorf("-rate, -max-inflight and -parallelism shape the -selfserve server; with -addr, configure fxrzd itself")
		}
		if o.shards != 1 {
			return o, fmt.Errorf("-shards shapes the -selfserve cluster; with -addr, list the ring's instances explicitly")
		}
	}
	if o.shards < 1 {
		return o, fmt.Errorf("-shards must be >= 1, got %d", o.shards)
	}
	if o.shardOut != "" {
		if !o.selfserve {
			return o, fmt.Errorf("-shard-out needs -selfserve (it mounts both clusters in-process)")
		}
		if o.shards < 2 {
			return o, fmt.Errorf("-shard-out compares 1 shard against -shards, so -shards must be >= 2")
		}
		if o.batch < 2 {
			return o, fmt.Errorf("-shard-out measures the /v1/*-many scatter path; set -batch >= 2")
		}
		if o.outPath != "" {
			return o, fmt.Errorf("-shard-out and -out are mutually exclusive (one baseline per run)")
		}
	}
	if o.overheadCap < 0 {
		return o, fmt.Errorf("-overhead-cap must be >= 0, got %g", o.overheadCap)
	}
	if o.target < 0 {
		return o, fmt.Errorf("-target must be >= 0, got %g", o.target)
	}
	if o.concurrency < 1 {
		return o, fmt.Errorf("-concurrency must be >= 1, got %d", o.concurrency)
	}
	if o.duration <= 0 {
		return o, fmt.Errorf("-duration must be > 0, got %v", o.duration)
	}
	if o.regionFrac < 0 || o.regionFrac > 1 {
		return o, fmt.Errorf("-region-frac must be in [0, 1], got %g", o.regionFrac)
	}
	if o.size < 2 {
		return o, fmt.Errorf("-size must be >= 2, got %d", o.size)
	}
	if o.shedCap < 0 || o.shedCap > 1 {
		return o, fmt.Errorf("-shed-cap must be in [0, 1], got %g", o.shedCap)
	}
	if o.rate < 0 || o.maxInFlight < 0 || o.parallelism < 0 {
		return o, fmt.Errorf("-rate, -max-inflight and -parallelism must be >= 0")
	}
	if o.batch < 1 {
		return o, fmt.Errorf("-batch must be >= 1, got %d", o.batch)
	}
	return o, nil
}

// sample is one request's outcome. status 0 means the transport failed.
type sample struct {
	ep     uint8
	status int
	us     int64
}

// trainSelfServe trains the tiny self-serve model once and saves it under
// o.model in a fresh temp dir every in-process instance mounts. cleanup
// removes the dir.
func trainSelfServe(o options, stderr io.Writer) (dir string, fw *fxrz.Framework, cleanup func(), err error) {
	fmt.Fprintln(stderr, "fxrzload: training the self-serve model (small forest, once)")
	var fields []*fxrz.Field
	for _, ts := range []int{1, 3, 5} {
		f, ferr := datagen.NyxField("baryon_density", 1, ts, 16)
		if ferr != nil {
			return "", nil, nil, ferr
		}
		fields = append(fields, f)
	}
	cfg := fxrz.DefaultConfig()
	cfg.StationaryPoints = 8
	cfg.AugmentPerField = 30
	cfg.Trees = 12
	fw, err = fxrz.Train(fxrz.NewSZ(), fields, cfg)
	if err != nil {
		return "", nil, nil, fmt.Errorf("training the self-serve model: %w", err)
	}
	dir, err = os.MkdirTemp("", "fxrzload-models-")
	if err != nil {
		return "", nil, nil, err
	}
	cleanup = func() { _ = os.RemoveAll(dir) }
	var buf bytes.Buffer
	if err := fw.Save(&buf); err != nil {
		cleanup()
		return "", nil, nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, o.model+".fxm"), buf.Bytes(), 0o644); err != nil {
		cleanup()
		return "", nil, nil, err
	}
	return dir, fw, cleanup, nil
}

// startCluster mounts nShards in-process fxrzd instances over the trained
// model dir. With nShards > 1 the listeners are bound before any server
// starts, so every instance opens knowing the full peer list and its own
// base — the same static-ring contract as fxrzd -peers/-self. shutdown
// drains them all.
func startCluster(o options, dir string, nShards int) (bases []string, shutdown func(), err error) {
	lns := make([]net.Listener, nShards)
	bases = make([]string, nShards)
	for i := range lns {
		ln, lerr := net.Listen("tcp", "127.0.0.1:0")
		if lerr != nil {
			for _, l := range lns[:i] {
				_ = l.Close()
			}
			return nil, nil, lerr
		}
		lns[i] = ln
		bases[i] = "http://" + ln.Addr().String()
	}
	maxBatch := 64
	if o.batch > maxBatch {
		maxBatch = o.batch
	}
	srvs := make([]*http.Server, nShards)
	for i := range lns {
		cfg := serve.Config{
			ModelsDir:     dir,
			MaxInFlight:   o.maxInFlight,
			Parallelism:   o.parallelism,
			RatePerClient: o.rate,
			MaxBatch:      maxBatch,
		}
		if nShards > 1 {
			cfg.Peers = append([]string(nil), bases...)
			cfg.Self = bases[i]
		}
		srvs[i] = &http.Server{Handler: serve.NewServer(cfg).Handler()}
		go func(hs *http.Server, ln net.Listener) { _ = hs.Serve(ln) }(srvs[i], lns[i])
	}
	shutdown = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		for _, hs := range srvs {
			_ = hs.Shutdown(ctx)
		}
	}
	return bases, shutdown, nil
}

// regionQuery builds an interior half-extent box per dimension
// ("lo:hi,lo:hi,..."), the region= value for partial unpacks.
func regionQuery(dims []int) string {
	parts := make([]string, len(dims))
	for i, d := range dims {
		lo := d / 4
		hi := lo + d/2
		if hi <= lo {
			hi = lo + 1
		}
		parts[i] = fmt.Sprintf("%d:%d", lo, hi)
	}
	return strings.Join(parts, ",")
}

// warmupPack runs one pack outside the measured window: it warms the model
// cache and its response is the compressed blob every unpack request replays.
func warmupPack(client *http.Client, packURL string, body []byte) ([]byte, error) {
	req, err := http.NewRequest("POST", packURL, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(serve.ClientHeader, "load-warmup")
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(blob))
	}
	return blob, nil
}

// doBatchRequest sends n copies of body as one /v1/*-many container and
// returns one sample per item with the request latency amortized across them.
// A refused batch (shed, 413, transport failure) yields n samples carrying
// the outer status so batch-mode shed accounting stays per-item. shardKeys
// gives each item a distinct shard-key param — identical payloads would
// otherwise all hash to one owner and a sharded target would never scatter.
func doBatchRequest(client *http.Client, ep int, url, clientID string, body []byte, n int, shardKeys bool) []sample {
	items := make([]batch.Item, n)
	for i := range items {
		items[i] = batch.Item{ID: uint64(i), Payload: body}
		if shardKeys {
			items[i].Params = fmt.Sprintf("shard-key=i%d", i)
		}
	}
	req, err := http.NewRequest("POST", url, bytes.NewReader(batch.EncodeRequest(items)))
	if err != nil {
		return repeatSample(sample{ep: uint8(ep)}, n)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(serve.ClientHeader, clientID)
	t0 := time.Now()
	resp, err := client.Do(req)
	us := time.Since(t0).Microseconds()
	perItem := us / int64(n)
	if err != nil {
		return repeatSample(sample{ep: uint8(ep), us: perItem}, n)
	}
	respBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	perItem = time.Since(t0).Microseconds() / int64(n)
	if resp.StatusCode != http.StatusOK || err != nil {
		return repeatSample(sample{ep: uint8(ep), status: resp.StatusCode, us: perItem}, n)
	}
	results, err := batch.DecodeResponse(respBody)
	if err != nil || len(results) != n {
		return repeatSample(sample{ep: uint8(ep), us: perItem}, n)
	}
	out := make([]sample, n)
	for i, r := range results {
		out[i] = sample{ep: uint8(ep), status: r.Status, us: perItem}
	}
	return out
}

// repeatSample fills a batch-wide outcome across its n items.
func repeatSample(s sample, n int) []sample {
	out := make([]sample, n)
	for i := range out {
		out[i] = s
	}
	return out
}

// doRequest sends one POST and returns its outcome sample.
func doRequest(client *http.Client, ep int, url, clientID string, body []byte) sample {
	req, err := http.NewRequest("POST", url, bytes.NewReader(body))
	if err != nil {
		return sample{ep: uint8(ep)}
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(serve.ClientHeader, clientID)
	t0 := time.Now()
	resp, err := client.Do(req)
	us := time.Since(t0).Microseconds()
	if err != nil {
		return sample{ep: uint8(ep), us: us}
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return sample{ep: uint8(ep), status: resp.StatusCode, us: us}
}

// percentileMS is the q-th percentile (nearest-rank) of sorted microsecond
// latencies, in milliseconds.
func percentileMS(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx]) / 1000
}

// cpuModel names the host CPU for the runner block.
func cpuModel() string {
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				if _, v, ok := strings.Cut(rest, ":"); ok {
					return strings.TrimSpace(v)
				}
			}
		}
	}
	return runtime.GOOS + "/" + runtime.GOARCH
}

// newLoadClient builds the shared HTTP client: keep-alive pool sized to the
// worker count — with the default transport (MaxIdleConnsPerHost 2) most
// workers would re-dial per request and the measured latencies would include
// connection setup, not serving.
func newLoadClient(concurrency int) (*http.Client, int) {
	idle := concurrency + 2
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        2 * idle,
		MaxIdleConnsPerHost: idle,
	}}, idle
}

// driveWindow runs the measured window: each worker owns a seeded RNG, a
// rate-limiter identity, and one target (round-robin over targets), and
// loops the mix until the deadline.
func driveWindow(o options, client *http.Client, targets []string, fieldBytes, blob []byte, target float64, region string, shardKeys bool) ([][]sample, time.Duration) {
	perWorker := make([][]sample, o.concurrency)
	deadline := time.Now().Add(o.duration)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < o.concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := targets[w%len(targets)]
			packURL := fmt.Sprintf("%s/v1/pack?model=%s&target=%g", base, o.model, target)
			estimateURL := fmt.Sprintf("%s/v1/estimate?model=%s&target=%g", base, o.model, target)
			unpackURL := base + "/v1/unpack"
			regionURL := unpackURL + "?region=" + region
			packManyURL := fmt.Sprintf("%s/v1/pack-many?model=%s&target=%g", base, o.model, target)
			estimateManyURL := fmt.Sprintf("%s/v1/estimate-many?model=%s&target=%g", base, o.model, target)
			unpackManyURL := base + "/v1/unpack-many"
			regionManyURL := unpackManyURL + "?region=" + region
			rng := rand.New(rand.NewSource(o.seed + int64(w)))
			clientID := fmt.Sprintf("load-%d", w)
			var out []sample
			for time.Now().Before(deadline) {
				var last sample
				if o.batch > 1 {
					var batched []sample
					switch ep := o.mix.pick(rng); ep {
					case epEstimate:
						batched = doBatchRequest(client, ep, estimateManyURL, clientID, fieldBytes, o.batch, shardKeys)
					case epUnpack:
						url := unpackManyURL
						if rng.Float64() < o.regionFrac {
							url = regionManyURL
						}
						batched = doBatchRequest(client, ep, url, clientID, blob, o.batch, shardKeys)
					case epPack:
						batched = doBatchRequest(client, ep, packManyURL, clientID, fieldBytes, o.batch, shardKeys)
					}
					out = append(out, batched...)
					last = batched[len(batched)-1]
				} else {
					switch ep := o.mix.pick(rng); ep {
					case epEstimate:
						last = doRequest(client, ep, estimateURL, clientID, fieldBytes)
					case epUnpack:
						url := unpackURL
						if rng.Float64() < o.regionFrac {
							url = regionURL
						}
						last = doRequest(client, ep, url, clientID, blob)
					case epPack:
						last = doRequest(client, ep, packURL, clientID, fieldBytes)
					}
					out = append(out, last)
				}
				if last.status == http.StatusTooManyRequests {
					// Shed or rate-limited: back off instead of busy-spinning.
					time.Sleep(5 * time.Millisecond)
				}
			}
			perWorker[w] = out
		}(w)
	}
	wg.Wait()
	return perWorker, time.Since(start)
}

// epAgg is one endpoint's (or the run's) outcome counts plus OK latencies.
type epAgg struct {
	requests, ok, shed, errors int
	okUS                       []int64
}

// epStats is one endpoint's counts and OK-latency percentiles in ms.
type epStats struct {
	name string
	epAgg
	p50, p90, p99, max float64
}

// aggregate folds samples per endpoint; percentiles are over OK latencies
// only (a shed 429 returns in microseconds and would flatter the tail).
// allOK is every OK latency across endpoints, sorted, for run-wide
// percentiles.
func aggregate(perWorker [][]sample) (entries []epStats, total epAgg, allOK []int64) {
	var agg [numEndpoints]epAgg
	for _, samples := range perWorker {
		for _, s := range samples {
			a := &agg[s.ep]
			a.requests++
			switch {
			case s.status == http.StatusOK:
				a.ok++
				a.okUS = append(a.okUS, s.us)
			case s.status == http.StatusTooManyRequests:
				a.shed++
			default:
				a.errors++
			}
		}
	}
	for ep, a := range agg {
		total.requests += a.requests
		total.ok += a.ok
		total.shed += a.shed
		total.errors += a.errors
		allOK = append(allOK, a.okUS...)
		if a.requests == 0 {
			continue
		}
		sort.Slice(a.okUS, func(i, j int) bool { return a.okUS[i] < a.okUS[j] })
		entries = append(entries, epStats{
			name:  epNames[ep],
			epAgg: a,
			p50:   percentileMS(a.okUS, 0.50),
			p90:   percentileMS(a.okUS, 0.90),
			p99:   percentileMS(a.okUS, 0.99),
			max:   percentileMS(a.okUS, 1),
		})
	}
	sort.Slice(allOK, func(i, j int) bool { return allOK[i] < allOK[j] })
	return entries, total, allOK
}

// addCounts records one outcome tally under prefix; total names the
// attempt count ("requests" or "items"). A clean run has no errors and at
// least one success, or its percentiles are fiction.
func addCounts(f *benchfile.File, prefix, total string, a epAgg, totalGates ...benchfile.Gate) {
	f.Add(prefix+total, "count", float64(a.requests), totalGates...)
	f.Add(prefix+"ok", "count", float64(a.ok), benchfile.AtLeast(1, ""))
	f.Add(prefix+"shed", "count", float64(a.shed))
	f.Add(prefix+"errors", "count", float64(a.errors), benchfile.AtMost(0, ""))
}

// capAt is the cap gate a flag asks for, or none when it is 0 (unset).
func capAt(bound float64, vs string) []benchfile.Gate {
	if bound > 0 {
		return []benchfile.Gate{benchfile.AtMost(bound, vs)}
	}
	return nil
}

// writeBaseline stamps f with today's date, this machine and config, and
// writes it to path.
func writeBaseline(path string, f benchfile.File, note string, config map[string]any, stderr io.Writer) error {
	cfg, err := json.Marshal(config)
	if err != nil {
		return err
	}
	f.Date = time.Now().Format("2006-01-02")
	f.Runner = benchfile.Runner{CPU: cpuModel(), Cores: runtime.NumCPU(), Note: note}
	f.Config = cfg
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "fxrzload: wrote %s\n", path)
	return nil
}

func run(args []string, stdout, stderr io.Writer) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	if o.shardOut != "" {
		return runShardCompare(o, stdout, stderr)
	}
	targets := o.targets
	var fw *fxrz.Framework
	if o.selfserve {
		dir, fw2, cleanup, terr := trainSelfServe(o, stderr)
		if terr != nil {
			return terr
		}
		defer cleanup()
		bases, shutdown, cerr := startCluster(o, dir, o.shards)
		if cerr != nil {
			return cerr
		}
		defer shutdown()
		targets, fw = bases, fw2
	}

	// The workload field: a time step the self-serve model never trained on.
	f, err := datagen.NyxField("baryon_density", 2, 2, o.size)
	if err != nil {
		return err
	}
	var fieldBuf bytes.Buffer
	if err := fieldio.Write(&fieldBuf, f); err != nil {
		return err
	}
	fieldBytes := fieldBuf.Bytes()
	target := o.target
	if target == 0 {
		lo, hi := fw.ValidRatioRange(f)
		target = lo + 0.5*(hi-lo)
	}

	client, idle := newLoadClient(o.concurrency)
	region := regionQuery(f.Dims)
	packURL := fmt.Sprintf("%s/v1/pack?model=%s&target=%g", targets[0], o.model, target)
	blob, err := warmupPack(client, packURL, fieldBytes)
	if err != nil {
		return fmt.Errorf("warmup pack: %w", err)
	}
	fmt.Fprintf(stderr, "fxrzload: driving %s for %v at concurrency %d (mix %s, target %.3g, %d-byte blob)\n",
		strings.Join(targets, ","), o.duration, o.concurrency, o.mix.raw, target, len(blob))

	// Distinct per-item shard keys whenever the target side can scatter:
	// the selfserve ring when sharded, or several external bases.
	shardKeys := o.batch > 1 && (o.shards > 1 || len(targets) > 1)
	perWorker, elapsed := driveWindow(o, client, targets, fieldBytes, blob, target, region, shardKeys)
	entries, total, _ := aggregate(perWorker)
	shedFrac := 0.0
	if total.requests > 0 {
		shedFrac = float64(total.shed) / float64(total.requests)
	}

	fmt.Fprintf(stdout, "fxrzload: %d requests in %.1fs (%.1f req/s): %d ok, %d shed (%.1f%%), %d errors\n",
		total.requests, elapsed.Seconds(), float64(total.requests)/elapsed.Seconds(),
		total.ok, total.shed, 100*shedFrac, total.errors)
	for _, e := range entries {
		capped := ""
		if c := o.caps[e.name]; c > 0 && e.p99 > c {
			capped = "  ** OVER p99 cap **"
		}
		fmt.Fprintf(stdout, "  %-8s %6d req  %6d ok  %5d shed  %3d err  p50 %8.2fms  p90 %8.2fms  p99 %8.2fms  max %8.2fms%s\n",
			e.name, e.requests, e.ok, e.shed, e.errors, e.p50, e.p90, e.p99, e.max, capped)
	}

	if o.csvPath != "" {
		if err := writeCSV(o.csvPath, perWorker); err != nil {
			return fmt.Errorf("csv: %w", err)
		}
	}
	if o.outPath != "" {
		note := fmt.Sprintf("single-run percentiles from fxrzload (mix %s, concurrency %d); http keep-alive transport with MaxIdleConnsPerHost=%d (>= %d workers, no per-request re-dial); shared hardware, treat absolute latencies as indicative", o.mix.raw, o.concurrency, idle, o.concurrency)
		if o.batch > 1 {
			note += fmt.Sprintf("; batch=%d via /v1/*-many, latencies amortized per item", o.batch)
		}
		if o.shards > 1 {
			note += fmt.Sprintf("; selfserve shard ring of %d instances, workers round-robin across bases", o.shards)
		} else if len(targets) > 1 {
			note += fmt.Sprintf("; %d external bases, workers round-robin across them", len(targets))
		}
		if o.note != "" {
			note += "; " + o.note
		}
		rep := benchfile.File{Suite: "load"}
		rep.Add("duration_s", "s", math.Round(elapsed.Seconds()*100)/100)
		addCounts(&rep, "", "requests", total, capAt(o.shedCap, "shed")...)
		rep.Add("rps", "req/s", math.Round(float64(total.requests)/elapsed.Seconds()*10)/10)
		for _, e := range entries {
			addCounts(&rep, e.name+"/", "requests", e.epAgg)
			rep.Add(e.name+"/p50_ms", "ms", e.p50)
			rep.Add(e.name+"/p90_ms", "ms", e.p90)
			rep.Add(e.name+"/p99_ms", "ms", e.p99, capAt(o.caps[e.name], "")...)
			rep.Add(e.name+"/max_ms", "ms", e.max)
		}
		config := map[string]any{"concurrency": o.concurrency, "mix": o.mix.raw, "region_frac": o.regionFrac}
		if err := writeBaseline(o.outPath, rep, note, config, stderr); err != nil {
			return err
		}
	}
	if total.errors > 0 {
		return fmt.Errorf("%d request(s) failed (non-200/429) — the baseline is not clean", total.errors)
	}
	if total.ok == 0 {
		return fmt.Errorf("no request succeeded — nothing to measure")
	}
	return nil
}

// runShardCompare measures what scatter-gather fan-out costs: the same batch
// workload against one instance and then a -shards ring (same trained model,
// same mix, same concurrency), amortized per-item percentiles for each, and
// the sharded/single p50 ratio recorded as the overhead a deployment pays
// for routing. Items carry distinct shard keys so batches actually split.
func runShardCompare(o options, stdout, stderr io.Writer) error {
	dir, fw, cleanup, err := trainSelfServe(o, stderr)
	if err != nil {
		return err
	}
	defer cleanup()
	f, err := datagen.NyxField("baryon_density", 2, 2, o.size)
	if err != nil {
		return err
	}
	var fieldBuf bytes.Buffer
	if err := fieldio.Write(&fieldBuf, f); err != nil {
		return err
	}
	fieldBytes := fieldBuf.Bytes()
	target := o.target
	if target == 0 {
		lo, hi := fw.ValidRatioRange(f)
		target = lo + 0.5*(hi-lo)
	}
	region := regionQuery(f.Dims)

	rep := benchfile.File{Suite: "shard"}
	var p50s []float64
	for i, n := range []int{1, o.shards} {
		bases, shutdown, err := startCluster(o, dir, n)
		if err != nil {
			return err
		}
		client, _ := newLoadClient(o.concurrency)
		packURL := fmt.Sprintf("%s/v1/pack?model=%s&target=%g", bases[0], o.model, target)
		blob, err := warmupPack(client, packURL, fieldBytes)
		if err != nil {
			shutdown()
			return fmt.Errorf("warmup pack (%d shard(s)): %w", n, err)
		}
		fmt.Fprintf(stderr, "fxrzload: driving %d shard(s) for %v at concurrency %d (batch %d, mix %s)\n",
			n, o.duration, o.concurrency, o.batch, o.mix.raw)
		perWorker, elapsed := driveWindow(o, client, bases, fieldBytes, blob, target, region, n > 1)
		shutdown()
		_, total, allOK := aggregate(perWorker)
		if total.errors > 0 {
			return fmt.Errorf("%d item(s) failed on the %d-shard run — the baseline is not clean", total.errors, n)
		}
		if total.ok == 0 {
			return fmt.Errorf("no item succeeded on the %d-shard run — nothing to measure", n)
		}
		p50, p99 := percentileMS(allOK, 0.50), percentileMS(allOK, 0.99)
		fmt.Fprintf(stdout, "  %d shard(s): %6d items  %6d ok  %5d shed  item p50 %8.3fms  p99 %8.3fms\n",
			n, total.requests, total.ok, total.shed, p50, p99)
		prefix := []string{"single/", "sharded/"}[i]
		rep.Add(prefix+"duration_s", "s", math.Round(elapsed.Seconds()*100)/100)
		addCounts(&rep, prefix, "items", total)
		var overheadGate []benchfile.Gate
		if i == 0 {
			overheadGate = capAt(o.overheadCap, "sharded/item_p50_ms")
		}
		rep.Add(prefix+"item_p50_ms", "ms", p50, overheadGate...)
		rep.Add(prefix+"item_p99_ms", "ms", p99)
		p50s = append(p50s, p50)
	}

	overhead := p50s[1] / p50s[0]
	fmt.Fprintf(stdout, "  scatter-gather per-item p50 overhead: %.2fx\n", overhead)

	note := fmt.Sprintf("amortized per-item latencies over /v1/*-many (batch %d, mix %s, concurrency %d); the sharded run pays one loopback forward per remote sub-batch, so the overhead ratio is routing cost, not network distance; shared hardware, treat absolute latencies as indicative", o.batch, o.mix.raw, o.concurrency)
	if o.note != "" {
		note += "; " + o.note
	}
	config := map[string]any{"mix": o.mix.raw, "batch": o.batch, "concurrency": o.concurrency, "shards": o.shards}
	if err := writeBaseline(o.shardOut, rep, note, config, stderr); err != nil {
		return err
	}
	if o.overheadCap > 0 && overhead > o.overheadCap {
		return fmt.Errorf("scatter-gather p50 overhead %.2fx exceeds the %.2fx cap", overhead, o.overheadCap)
	}
	return nil
}

// writeCSV dumps every sample as endpoint,status,latency_us rows.
func writeCSV(path string, perWorker [][]sample) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	_ = w.Write([]string{"endpoint", "status", "latency_us"})
	for _, samples := range perWorker {
		for _, s := range samples {
			_ = w.Write([]string{epNames[s.ep], strconv.Itoa(s.status), strconv.FormatInt(s.us, 10)})
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
