package main

import (
	"fmt"
	"math"
	"time"

	fxrz "github.com/fxrz-go/fxrz"
	"github.com/fxrz-go/fxrz/internal/grid"
)

// regionStream is one indexed stream with its reader and the full decode
// that region answers are checked against.
type regionStream struct {
	codec string
	field *grid.Field
	knob  float64
	blob  []byte
	rd    *fxrz.RegionReader
	full  *grid.Field
	// batches counts point batches served, for reader sessions.
	batches int
}

// regionOpsPerRun caps the generated op list; a run cycles through it if
// it finishes the list early.
const regionOpsPerRun = 6000

func runRegionRead(r *bench) error {
	spec := r.cfg.Region
	fields, err := regionFields(r.seed, spec.Size)
	if err != nil {
		return err
	}
	// Each codec's streams draw their relative bounds from their own strata
	// of the log range, so every seed spans the range and the decode cost
	// mix moves little from seed to seed.
	rng := rngFor(r.seed, "region/knobs")
	strata := make([][]int, len(spec.Codecs))
	for ci := range strata {
		strata[ci] = rng.Perm(len(fields))
	}
	var streams []*regionStream
	for fi, f := range fields {
		r.fieldBytes += int64(f.Bytes())
		r.printf("field %s dims=%v bytes=%d", f.Name, f.Dims, f.Bytes())
		for ci, name := range spec.Codecs {
			u := (float64(strata[ci][fi]) + rng.Float64()) / float64(len(fields))
			rel := logLerp(spec.RelBoundRange[0], spec.RelBoundRange[1], u)
			streams = append(streams, &regionStream{codec: name, field: f, knob: rel * f.ValueRange()})
		}
	}
	_, err = setupReps(r, func() (struct{}, error) {
		for _, s := range streams {
			c, err := fxrz.ByName(s.codec)
			if err != nil {
				return struct{}{}, err
			}
			blob, err := fxrz.WithParallelism(c, r.cfg.Workers).Compress(s.field, s.knob)
			if err != nil {
				return struct{}{}, fmt.Errorf("compressing %s with %s: %w", s.field.Name, s.codec, err)
			}
			if s.blob, err = fxrz.IndexBlob(blob); err != nil {
				return struct{}{}, err
			}
			if s.rd, err = fxrz.OpenReader(s.blob); err != nil {
				return struct{}{}, err
			}
		}
		return struct{}{}, nil
	}, nil)
	if err != nil {
		return err
	}
	dims := make([][]int, len(streams))
	for i, s := range streams {
		if s.full, err = fxrz.DecompressParallel(s.blob, r.cfg.Workers); err != nil {
			return fmt.Errorf("full decode of %s/%s: %w", s.field.Name, s.codec, err)
		}
		if err := checkBound(s.codec, s.knob, s.field, s.full); err != nil {
			return err
		}
		dims[i] = s.field.Dims
		r.printf("stream %s/%s knob=%.4g bytes=%d ratio=%.2f", s.field.Name, s.codec, s.knob, len(s.blob), fxrz.Ratio(s.field, s.blob))
	}
	ops := regionOps(r.seed, regionOpsPerRun, dims, spec)
	resetSessions := func() {
		for _, s := range streams {
			s.batches = 0
		}
	}

	if r.traced {
		base := regionRun(r, nil, streams, ops, r.seconds)
		resetSessions()
		var traced regionPass
		tracedPass(r, func() { traced = regionRun(r, r.tr, streams, ops, r.seconds) })
		reportOverhead(r, base.lat, traced.lat, base.wall, traced.wall)
		reportSpans(r)
		if err := layerSweep(r, fields, nil, r.cfg.Archive.Codecs); err != nil {
			return err
		}
		return serveProbe(r, probeSeconds)
	}
	p := regionRun(r, nil, streams, ops, r.seconds)
	for _, k := range p.order {
		r.info("mbps."+k, p.rates[k].mbps(), "MB/s", len(p.perClass[k]), "(output MB per second of op time)")
	}
	latencyMetrics(r, p.order, p.perClass, "op classes (box decode or point batch, per codec)")
	var cpus []float64
	for _, k := range p.order {
		cpus = append(cpus, ms(p.cpu[k])/float64(max(1, len(p.perClass[k]))))
	}
	r.e2e("cpu_ms_per_op", geomean(cpus), len(p.lat), "(process CPU per op, geometric mean over op classes)")
	return nil
}

// probeSeconds is how long a traced non-serving workload drives the serve
// probe: enough requests that every kind has a median.
const probeSeconds = 8 * time.Second

type regionPass struct {
	lat      []float64
	rates    map[string]*rate
	perClass map[string][]float64
	cpu      map[string]time.Duration
	order    []string
	wall     time.Duration
}

// regionRun reads ops in order, cycling, until budget has elapsed; every
// answer is checked against the full decode outside the timed span.
func regionRun(r *bench, tr *tracer, streams []*regionStream, ops []regionOp, budget time.Duration) regionPass {
	p := regionPass{rates: map[string]*rate{}, perClass: map[string][]float64{}, cpu: map[string]time.Duration{}}
	for _, kind := range []string{"region", "at"} {
		for _, c := range r.cfg.Region.Codecs {
			k := kind + "." + c
			p.order = append(p.order, k)
			p.rates[k] = &rate{}
		}
	}
	vals := make([]float32, 0, r.cfg.Region.PointsPerBatch)
	start := time.Now()
	for i := 0; time.Since(start) < budget; i++ {
		op := ops[i%len(ops)]
		s := streams[op.Stream]
		var class string
		var outBytes int
		var d, cpu, cpu0 time.Duration
		var err error
		if op.Lo != nil {
			class = "region." + s.codec
			sp := tr.start(class, 0, int64(i+1))
			cpu0 = processCPU()
			t0 := time.Now()
			var got *grid.Field
			got, err = fxrz.DecompressRegionParallel(s.blob, op.Lo, op.Hi, r.cfg.Workers)
			d = time.Since(t0)
			cpu = processCPU() - cpu0
			sp.end(int64(boxSize(op.Lo, op.Hi)))
			if err == nil {
				outBytes = got.Bytes()
			}
			err = checkRegion(s.full, got, op.Lo, op.Hi, err)
		} else {
			class = "at." + s.codec
			// A reader's cache warms as it serves reads, so each stream gets a
			// fresh reader every session_batches batches: the share of cold
			// reads is then the same however many ops a run gets through.
			if s.batches%r.cfg.Region.SessionBatches == 0 {
				if s.rd, err = fxrz.OpenReader(s.blob); err != nil {
					r.op(fmt.Errorf("region-read %s/%s: reopening reader: %w", s.field.Name, s.codec, err))
					continue
				}
			}
			s.batches++
			sp := tr.start(class, 0, int64(i+1))
			vals = vals[:0]
			cpu0 = processCPU()
			t0 := time.Now()
			for _, pt := range op.Points {
				v, aerr := s.rd.At(pt...)
				if aerr != nil && err == nil {
					err = aerr
				}
				vals = append(vals, v)
			}
			d = time.Since(t0)
			cpu = processCPU() - cpu0
			sp.end(int64(len(op.Points)))
			outBytes = 4 * len(op.Points)
			if err == nil {
				for j, pt := range op.Points {
					if want := s.full.At(pt...); vals[j] != want && !(math.IsNaN(float64(want)) && vals[j] != vals[j]) {
						err = fmt.Errorf("At%v = %g, full decode has %g", pt, vals[j], want)
						break
					}
				}
			}
		}
		if err != nil {
			r.op(fmt.Errorf("region-read %s/%s: %w", s.field.Name, s.codec, err))
			continue
		}
		r.op(nil)
		p.lat = append(p.lat, ms(d))
		p.rates[class].add(outBytes, d)
		p.perClass[class] = append(p.perClass[class], ms(d))
		p.cpu[class] += cpu
	}
	p.wall = time.Since(start)
	return p
}
