package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	fxrz "github.com/fxrz-go/fxrz"
	"github.com/fxrz-go/fxrz/internal/batch"
	"github.com/fxrz-go/fxrz/internal/core"
	"github.com/fxrz-go/fxrz/internal/fieldio"
	"github.com/fxrz-go/fxrz/internal/grid"
	"github.com/fxrz-go/fxrz/internal/obs"
	"github.com/fxrz-go/fxrz/internal/roi"
	"github.com/fxrz-go/fxrz/internal/serve"
)

// Benchmark-owned request headers: the request's trace ID, the client
// span it belongs to, and its kind, read by the timing middleware.
const (
	hdrReq  = "X-Bench-Req"
	hdrSpan = "X-Bench-Span"
	hdrKind = "X-Bench-Kind"
)

// servePayload is one small field the clients send, with everything needed
// to build its requests and check their answers.
type servePayload struct {
	f         *grid.Field
	body      []byte    // fxrzfield container
	features  []byte    // features-mode JSON body
	targets   []float64 // seeded targets inside the valid range
	knobs     []float64 // library EstimateConfig knob per target
	featKnobs []float64 // library EstimateFromFeatures knob per target
	blobs     [][]byte  // indexed sz stream packed at each target
	fulls     []*grid.Field
	regions   []*grid.Field // the region box of each full decode
	lo, hi    []int         // region of region unpacks
}

// serveEnv is one running in-process fxrzd.
type serveEnv struct {
	hs     *http.Server
	base   string
	served chan error
}

func (e *serveEnv) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := e.hs.Shutdown(ctx)
	if serr := <-e.served; serr != nil && serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	return err
}

// serveConfig is the fixed serve.Config from config.json.
func serveConfig(c serveConfigSpec, dir string) serve.Config {
	return serve.Config{
		ModelsDir:     dir,
		CacheSize:     c.CacheSize,
		MaxInFlight:   c.MaxInFlight,
		MaxBodyBytes:  c.MaxBodyBytes,
		Timeout:       time.Duration(c.TimeoutSeconds) * time.Second,
		Parallelism:   c.Parallelism,
		RatePerClient: c.RatePerClient,
		MaxBatch:      c.MaxBatch,
	}
}

// handlerMeter is the benchmark's middleware around Handler(): while a
// tracer is set it records a handler span per request under the client's
// span.
type handlerMeter struct{ tr atomic.Pointer[tracer] }

func (m *handlerMeter) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		tr := m.tr.Load()
		if tr == nil {
			h.ServeHTTP(w, req)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, req)
		t1 := time.Now()
		id, _ := strconv.ParseInt(req.Header.Get(hdrReq), 10, 64)
		parent, _ := strconv.ParseInt(req.Header.Get(hdrSpan), 10, 64)
		tr.add("serve.handler."+req.Header.Get(hdrKind), parent, id, t0, t1, 0)
	})
}

// startServe trains the served model, writes its .fxm, starts the server
// on a loopback listener and makes the first model load.
func startServe(r *bench, dir string, meter *handlerMeter, train []*grid.Field) (*serveEnv, []byte, error) {
	spec := r.cfg.Serve
	fw, err := fxrz.Train(fxrz.NewSZ(), train, trainConfig(r.cfg))
	if err != nil {
		return nil, nil, fmt.Errorf("training the served model: %w", err)
	}
	var buf bytes.Buffer
	if err := fw.Save(&buf); err != nil {
		return nil, nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, spec.Model+".fxm"), buf.Bytes(), 0o644); err != nil {
		return nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	srv := serve.NewServer(serveConfig(spec.Config, dir))
	env := &serveEnv{hs: &http.Server{Handler: meter.wrap(srv.Handler())},
		base: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { env.served <- env.hs.Serve(ln) }()
	q := url.Values{"model": {spec.Model}, "target": {"10"}}
	first := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := first.Post(env.base+"/v1/estimate?"+q.Encode(), "application/json",
		bytes.NewReader([]byte(`{"value_range":1,"mean_value":0.5,"mnd":0.01,"mld":0.01,"msd":0.01}`)))
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("first model load: status %d", resp.StatusCode)
		}
	}
	if err != nil {
		_ = env.close()
		return nil, nil, err
	}
	return env, buf.Bytes(), nil
}

// preparePayloads builds request bodies and the library's answers for each
// payload, using the framework loaded from the served model file.
func preparePayloads(r *bench, fields []*grid.Field, model []byte) ([]*servePayload, error) {
	spec := r.cfg.Serve
	fw, err := fxrz.Load(bytes.NewReader(model))
	if err != nil {
		return nil, err
	}
	fw = fw.WithParallelism(r.cfg.Workers)
	tc := trainConfig(r.cfg)
	ranges := make([][2]float64, len(fields))
	for i, f := range fields {
		lo, hi := fw.ValidRatioRange(f)
		ranges[i] = [2]float64{lo, hi}
	}
	targets := serveTargets(r.seed, ranges, spec.TargetsPerPayload)
	rng := rngFor(r.seed, "serve/regions")
	out := make([]*servePayload, len(fields))
	for i, f := range fields {
		p := &servePayload{f: f, targets: targets[i]}
		var body bytes.Buffer
		if err := fieldio.Write(&body, f); err != nil {
			return nil, err
		}
		p.body = body.Bytes()
		ft := core.ExtractFeatures(f, tc.Stride)
		caR := core.NonConstantRatio(f, tc.BlockSide, tc.Lambda)
		p.features, err = json.Marshal(serve.FeaturesRequest{ValueRange: ft.ValueRange, MeanValue: ft.MeanValue,
			MND: ft.MND, MLD: ft.MLD, MSD: ft.MSD, CARatio: caR})
		if err != nil {
			return nil, err
		}
		for _, t := range p.targets {
			est, err := fw.EstimateConfig(f, t)
			if err != nil {
				return nil, err
			}
			fest, err := fw.EstimateFromFeatures(ft, t, caR)
			if err != nil {
				return nil, err
			}
			p.knobs = append(p.knobs, est.Knob)
			p.featKnobs = append(p.featKnobs, fest.Knob)
		}
		p.lo, p.hi = randomBox(rng, f.Dims, 1.0/8)
		for ti, t := range p.targets {
			blob, est, err := fw.CompressToRatio(f, t)
			if err != nil {
				return nil, err
			}
			if est.Knob != p.knobs[ti] {
				return nil, fmt.Errorf("library pack of %s used knob %g, estimate gave %g", f.Name, est.Knob, p.knobs[ti])
			}
			if blob, err = fxrz.IndexBlob(blob); err != nil {
				return nil, err
			}
			full, err := fxrz.Decompress(blob)
			if err != nil {
				return nil, err
			}
			if err := checkBound("sz", est.Knob, f, full); err != nil {
				return nil, fmt.Errorf("library pack of %s: %w", f.Name, err)
			}
			region, err := grid.SliceRegion(full, p.lo, p.hi)
			if err != nil {
				return nil, err
			}
			p.blobs, p.fulls, p.regions = append(p.blobs, blob), append(p.fulls, full), append(p.regions, region)
		}
		out[i] = p
	}
	return out, nil
}

// serveResp is what a request returned, kept for checking after the phase.
type serveResp struct {
	body []byte
	knob string
}

// serveClient sends the scheduled requests of one phase.
type serveClient struct {
	r        *bench
	env      *serveEnv
	hc       *http.Client
	payloads []*servePayload
	tr       *tracer
}

func newServeClient(r *bench, env *serveEnv, payloads []*servePayload, tr *tracer) *serveClient {
	conns := r.cfg.Serve.Connections
	return &serveClient{r: r, env: env, payloads: payloads, tr: tr, hc: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true},
		Timeout:   time.Minute,
	}}
}

func (c *serveClient) closeIdle() { c.hc.CloseIdleConnections() }

// build returns the request for a scheduled entry and the field bytes it
// carries or asks for.
func (c *serveClient) build(q serveReq) (*http.Request, int, error) {
	spec := c.r.cfg.Serve
	p := c.payloads[q.Payload]
	target := strconv.FormatFloat(p.targets[q.Target], 'g', -1, 64)
	query := url.Values{"model": {spec.Model}, "target": {target}}
	var path, ctype string
	var body []byte
	fieldBytes := p.f.Bytes()
	switch q.Kind {
	case kindEstimate:
		path, body = "/v1/estimate", p.body
	case kindEstimateFeatures:
		path, body, ctype, fieldBytes = "/v1/estimate", p.features, "application/json", 0
	case kindEstimateMany:
		items := make([]batch.Item, len(q.Items))
		fieldBytes = 0
		for j, pi := range q.Items {
			ip := c.payloads[pi]
			t := strconv.FormatFloat(ip.targets[q.Target], 'g', -1, 64)
			items[j] = batch.Item{ID: uint64(j), Params: "target=" + t, Payload: ip.body}
			fieldBytes += ip.f.Bytes()
		}
		path, body = "/v1/estimate-many", batch.EncodeRequest(items)
	case kindPack:
		path, body = "/v1/pack", p.body
	case kindUnpack:
		path, body, query = "/v1/unpack", p.blobs[q.Target], url.Values{}
		if q.Region {
			query.Set("region", roi.FormatRegion(p.lo, p.hi))
			fieldBytes = p.regions[q.Target].Bytes()
		}
	default:
		return nil, 0, fmt.Errorf("unknown request kind %q", q.Kind)
	}
	req, err := http.NewRequest(http.MethodPost, c.env.base+path+"?"+query.Encode(), bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	if ctype == "" {
		ctype = "application/octet-stream"
	}
	req.Header.Set("Content-Type", ctype)
	req.Header.Set(hdrKind, q.Kind)
	return req, fieldBytes, nil
}

// do sends one request; it records a client span in a traced run.
func (c *serveClient) do(q serveReq, id int64) (outcome, serveResp) {
	req, fieldBytes, err := c.build(q)
	if err != nil {
		return outcome{err: err}, serveResp{}
	}
	sp := c.tr.start("serve.client."+q.Kind, 0, id)
	if c.tr != nil {
		req.Header.Set(hdrReq, strconv.FormatInt(id, 10))
		req.Header.Set(hdrSpan, strconv.FormatInt(sp.id, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		sp.end(0)
		return outcome{err: fmt.Errorf("%s: %w", q.Kind, err)}, serveResp{}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	sp.end(int64(fieldBytes))
	if err != nil {
		return outcome{err: fmt.Errorf("%s: reading response: %w", q.Kind, err)}, serveResp{}
	}
	sr := serveResp{body: body, knob: resp.Header.Get("X-Fxrz-Knob")}
	out := outcome{bytes: fieldBytes}
	switch {
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		out.refused = true
		out.err = fmt.Errorf("%s: refused with status %d", q.Kind, resp.StatusCode)
	case resp.StatusCode != http.StatusOK:
		out.err = fmt.Errorf("%s: status %d: %s", q.Kind, resp.StatusCode, bytes.TrimSpace(body))
	}
	return out, sr
}

// verify checks one successful answer against the library's.
func (c *serveClient) verify(q serveReq, sr serveResp) error {
	p := c.payloads[q.Payload]
	checkKnob := func(body []byte, want float64) error {
		var er serve.EstimateResponse
		if err := json.Unmarshal(body, &er); err != nil {
			return fmt.Errorf("decoding estimate: %w", err)
		}
		if er.Knob != want {
			return fmt.Errorf("served knob %g != library knob %g", er.Knob, want)
		}
		return nil
	}
	switch q.Kind {
	case kindEstimate:
		return checkKnob(sr.body, p.knobs[q.Target])
	case kindEstimateFeatures:
		return checkKnob(sr.body, p.featKnobs[q.Target])
	case kindEstimateMany:
		res, err := batch.DecodeResponse(sr.body)
		if err != nil {
			return err
		}
		if len(res) != len(q.Items) {
			return fmt.Errorf("batch answered %d of %d items", len(res), len(q.Items))
		}
		for _, it := range res {
			if it.ID >= uint64(len(q.Items)) || it.Status != http.StatusOK {
				return fmt.Errorf("batch item %d: status %d", it.ID, it.Status)
			}
			if err := checkKnob(it.Payload, c.payloads[q.Items[it.ID]].knobs[q.Target]); err != nil {
				return fmt.Errorf("batch item %d: %w", it.ID, err)
			}
		}
		return nil
	case kindPack:
		knob, err := strconv.ParseFloat(sr.knob, 64)
		if err != nil {
			return fmt.Errorf("pack knob header %q: %w", sr.knob, err)
		}
		if knob != p.knobs[q.Target] {
			return fmt.Errorf("pack knob %g != library knob %g", knob, p.knobs[q.Target])
		}
		rec, err := fxrz.Decompress(sr.body)
		if err != nil {
			return fmt.Errorf("decoding packed stream: %w", err)
		}
		return checkBound("sz", knob, p.f, rec)
	case kindUnpack:
		got, err := fieldio.Read(bytes.NewReader(sr.body))
		if err != nil {
			return fmt.Errorf("decoding unpack body: %w", err)
		}
		want := p.fulls[q.Target]
		if q.Region {
			want = p.regions[q.Target]
		}
		if !sameData(got.Data, want.Data) {
			return fmt.Errorf("unpack of %s (region=%v) differs from the library decode", p.f.Name, q.Region)
		}
		return nil
	}
	return fmt.Errorf("unknown request kind %q", q.Kind)
}

// phaseResult is one open-loop phase's samples with their kinds.
type phaseResult struct {
	reqs    []serveReq
	samples []sample
	cpu     time.Duration // process CPU time while the phase ran
}

// runPhase sends a schedule open loop and then checks every answer.
func (c *serveClient) runPhase(reqs []serveReq, idBase int64) phaseResult {
	dues := make([]time.Duration, len(reqs))
	for i, q := range reqs {
		dues[i] = time.Duration(q.DueNS)
	}
	resps := make([]serveResp, len(reqs))
	t0 := time.Now().Add(5 * time.Millisecond)
	cpu0 := processCPU()
	samples := openLoop(realClock{}, t0, dues, c.r.cfg.Serve.Connections, func(i int) outcome {
		out, sr := c.do(reqs[i], idBase+int64(i)+1)
		resps[i] = sr
		return out
	})
	cpu := processCPU() - cpu0
	for i, s := range samples {
		if s.out.err == nil {
			if err := c.verify(reqs[i], resps[i]); err != nil {
				samples[i].out.err = err
			}
		}
		c.r.op(samples[i].out.err)
	}
	return phaseResult{reqs: reqs, samples: samples, cpu: cpu}
}

// met reports whether a request succeeded within its class's limit.
func (c *serveClient) met(q serveReq, s sample) bool {
	return s.out.err == nil && ms(s.latency()) <= c.r.cfg.Serve.LimitsMS[q.Kind]
}

func runServeMixed(r *bench) error {
	spec := r.cfg.Serve
	fields, err := servePayloads(r.seed, spec.Payloads)
	if err != nil {
		return err
	}
	train, err := serveModelFields()
	if err != nil {
		return err
	}
	for _, f := range fields {
		r.fieldBytes += int64(f.Bytes())
	}
	// fxrzd records its obs metrics; the in-process server does the same.
	obs.Enable()
	defer obs.Disable()

	meter := &handlerMeter{}
	var dirs []string
	defer func() {
		for _, d := range dirs {
			_ = os.RemoveAll(d)
		}
	}()
	var model []byte
	env, err := setupReps(r, func() (*serveEnv, error) {
		dir, err := os.MkdirTemp(r.outDir, "models-")
		if err != nil {
			return nil, err
		}
		dirs = append(dirs, dir)
		e, m, err := startServe(r, dir, meter, train)
		model = m
		return e, err
	}, func(e *serveEnv) { _ = e.close() })
	if err != nil {
		return err
	}
	defer env.close()
	payloads, err := preparePayloads(r, fields, model)
	if err != nil {
		return err
	}
	phase1 := time.Duration(float64(r.seconds) * spec.Phase1Share)
	sched := poissonSchedule(rngFor(r.seed, "serve/phase1"), spec.NominalRPS, int64(phase1), spec)

	if r.traced {
		base := newServeClient(r, env, payloads, nil)
		b := base.runPhase(sched, 0)
		base.closeIdle()
		meter.tr.Store(r.tr)
		tc := newServeClient(r, env, payloads, r.tr)
		var t phaseResult
		tracedPass(r, func() { t = tc.runPhase(sched, int64(len(sched))) })
		tc.closeIdle()
		meter.tr.Store(nil)
		reportOverhead(r, okLatencies(b), okLatencies(t), b.samples[len(b.samples)-1].end.Sub(b.samples[0].due),
			t.samples[len(t.samples)-1].end.Sub(t.samples[0].due))
		reportSpans(r)
		if err := serveLayers(r, env, t); err != nil {
			return err
		}
		return layerSweep(r, fields, nil, r.cfg.Archive.Codecs)
	}

	c := newServeClient(r, env, payloads, nil)
	defer c.closeIdle()
	p1 := c.runPhase(sched, 0)
	serveInfo(r, c, p1)

	// Phase 2: climb the ladder while rungs fit the remaining time. A rung
	// lasts long enough for ladder_rung_requests arrivals; it passes when at
	// least 99% of its requests succeed within their kind's limit and the
	// backlog does not grow.
	budget := r.seconds - phase1
	maxRate, achieved := 0.0, 0.0
	for k, rate := range spec.LadderRPS {
		rung := time.Duration(float64(spec.LadderRungRequests) / rate * float64(time.Second))
		if rung > budget {
			r.printf("ladder %6.0f req/s: not run (%.1f s left, rung needs %.1f s)", rate, budget.Seconds(), rung.Seconds())
			break
		}
		budget -= rung
		reqs := poissonSchedule(rngFor(r.seed, fmt.Sprintf("serve/ladder%d", k)), rate, int64(rung), spec)
		ph := c.runPhase(reqs, int64(1e9*(k+1)))
		metN, okN := 0, 0
		for i, s := range ph.samples {
			if c.met(ph.reqs[i], s) {
				metN++
			}
			if s.out.err == nil {
				okN++
			}
		}
		attain := float64(metN) / float64(max(1, len(ph.samples)))
		growth := backlogGrowth(ph.samples)
		pass := attain >= 0.99 && okN == len(ph.samples) && ms(growth) <= spec.LadderBacklogGrowthMS
		r.printf("ladder %6.0f req/s: n=%d attain=%.4f backlog_growth=%.3f ms pass=%v", rate, len(ph.samples), attain, ms(growth), pass)
		if !pass {
			break
		}
		maxRate = rate
		achieved = float64(okN) / ph.samples[len(ph.samples)-1].end.Sub(ph.samples[0].due).Seconds()
	}
	r.info("max_rate_rps", maxRate, "req/s", len(spec.LadderRPS), fmt.Sprintf("(highest passing rung; achieved %.1f req/s there)", achieved))
	return nil
}

// okLatencies returns the latencies in ms of a phase's successful requests.
func okLatencies(p phaseResult) []float64 {
	var out []float64
	for _, s := range p.samples {
		if s.out.err == nil {
			out = append(out, ms(s.latency()))
		}
	}
	return out
}

// backlogGrowth is the median wait in the last quarter of a phase minus
// that in the first quarter: positive when requests queue up faster than
// the server drains them.
func backlogGrowth(samples []sample) time.Duration {
	q := len(samples) / 4
	if q == 0 {
		return 0
	}
	waits := func(ss []sample) float64 {
		w := make([]float64, len(ss))
		for i, s := range ss {
			w[i] = float64(s.wait())
		}
		return plainMedian(w)
	}
	return time.Duration(waits(samples[len(samples)-q:]) - waits(samples[:q]))
}

// serveInfo reports phase 1's latencies per request kind, its field
// throughput and SLO attainment.
func serveInfo(r *bench, c *serveClient, p phaseResult) {
	lat := map[string][]float64{}
	rates := map[string]*rate{}
	metN := 0
	for i, s := range p.samples {
		q := p.reqs[i]
		if c.met(q, s) {
			metN++
		}
		if s.out.err != nil {
			continue
		}
		lat[q.Kind] = append(lat[q.Kind], ms(s.latency()))
		if rates[q.Kind] == nil {
			rates[q.Kind] = &rate{}
		}
		rates[q.Kind].add(s.out.bytes, s.latency())
	}
	latencyMetrics(r, serveKinds, lat, fmt.Sprintf("request kinds (phase 1 at %g req/s, from due time)", r.cfg.Serve.NominalRPS))
	for _, k := range serveKinds {
		if rt := rates[k]; rt != nil && rt.bytes > 0 {
			r.info("mbps."+k, rt.mbps(), "MB/s", len(lat[k]), "(field MB per second of latency)")
		}
	}
	r.e2e("cpu_ms_per_op", ms(p.cpu)/float64(len(p.samples)), len(p.samples), "(process CPU per request sent: client, generator and server)")
	r.info("slo_attain", float64(metN)/float64(len(p.samples)), "ratio", len(p.samples), "(sent requests answered within their kind's limit)")
	lateness(r, p.samples, false)
}

// lateness reports the generator's own lateness: how late an idle
// connection woke for a due request, at p90 (every run has the 100 samples
// it needs) and at p99 where the sample supports it.
func lateness(r *bench, samples []sample, asLayer bool) {
	var late []float64
	for _, s := range samples {
		if s.slept {
			late = append(late, ms(s.wait()))
		}
	}
	sorted := sortedCopy(late)
	p90, ok := percentile(sorted, 900)
	if !ok {
		r.op(fmt.Errorf("loadgen: too few idle-connection sends (%d) to report lateness", len(late)))
		return
	}
	note := "(idle-connection wake-ups; a run-validity check)"
	if p99, ok := percentile(sorted, 990); ok {
		note = fmt.Sprintf("(idle-connection wake-ups, p99 %.4g ms; a run-validity check)", p99)
	}
	if asLayer {
		r.layer("loadgen.late_p90_ms", p90, len(late), note)
	} else {
		r.info("loadgen.late_p90_ms", p90, "ms", len(late), note)
	}
}

// serveLayers reports the serve layer from a traced phase: handler time per
// kind (from the middleware), transport time (client round trip minus
// handler), refusals and the model cache hit ratio.
func serveLayers(r *bench, env *serveEnv, p phaseResult) error {
	spans := r.tr.snapshot()
	handler := map[int64]span{}
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "serve.handler.") {
			handler[s.Req] = s
		}
	}
	perKind := map[string][]float64{}
	var transport []float64
	for _, s := range spans {
		kind, ok := strings.CutPrefix(s.Name, "serve.client.")
		h, found := handler[s.Req]
		if !ok || !found {
			continue
		}
		perKind[kind] = append(perKind[kind], float64(h.dur())/1e3)
		transport = append(transport, float64(s.dur()-h.dur())/1e3)
	}
	for _, k := range serveKinds {
		m, ok := median(perKind[k])
		if !ok {
			r.op(fmt.Errorf("serve layer: too few %s requests (%d) for a median", k, len(perKind[k])))
			continue
		}
		r.layer("serve.handler_us."+k+".p50", m.Value, m.N, "("+strings.TrimSpace(percentiles(sortedCopy(perKind[k])))+" us)")
	}
	if m, ok := median(transport); ok {
		r.layer("serve.transport_us", m.Value, m.N, "(median client round trip minus handler time)")
	}
	refused := map[string]int{}
	for i, s := range p.samples {
		if s.out.refused {
			refused[p.reqs[i].Kind]++
		}
	}
	for _, k := range serveKinds {
		r.info("serve.refused."+k, float64(refused[k]), "count", len(p.samples), "")
	}
	resp, err := http.Get(env.base + "/healthz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var h serve.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return fmt.Errorf("decoding /healthz: %w", err)
	}
	total := h.ModelCache.Hits + h.ModelCache.Misses
	if total == 0 {
		return fmt.Errorf("/healthz reports no model cache lookups")
	}
	r.layer("serve.model_cache_hit_ratio", float64(h.ModelCache.Hits)/float64(total), int(total), "(from /healthz)")
	lateness(r, p.samples, true)
	return nil
}

// serveProbe measures the serve layer for a workload that does not use
// it: the serve-mixed phase 1 traffic, traced, for probe seconds.
func serveProbe(r *bench, probe time.Duration) error {
	spec := r.cfg.Serve
	fields, err := servePayloads(r.seed, spec.Payloads)
	if err != nil {
		return err
	}
	train, err := serveModelFields()
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(r.outDir, "models-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	obs.Enable()
	defer obs.Disable()
	meter := &handlerMeter{}
	meter.tr.Store(r.tr)
	env, model, err := startServe(r, dir, meter, train)
	if err != nil {
		return err
	}
	defer env.close()
	payloads, err := preparePayloads(r, fields, model)
	if err != nil {
		return err
	}
	sched := poissonSchedule(rngFor(r.seed, "serve/probe"), spec.NominalRPS, int64(probe), spec)
	c := newServeClient(r, env, payloads, r.tr)
	defer c.closeIdle()
	p := c.runPhase(sched, 1<<40)
	r.printf("serve probe: %d requests over %s at %g req/s", len(sched), probe, spec.NominalRPS)
	return serveLayers(r, env, p)
}
