package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	fxrz "github.com/fxrz-go/fxrz"
	"github.com/fxrz-go/fxrz/internal/fpzip"
	"github.com/fxrz-go/fxrz/internal/grid"
)

// trainConfig is the framework configuration every workload trains with:
// the paper's defaults with a smaller sweep and forest so set-up stays a
// few seconds.
func trainConfig(cfg config) fxrz.Config {
	tc := fxrz.DefaultConfig()
	tc.StationaryPoints = cfg.Train.StationaryPoints
	tc.AugmentPerField = cfg.Train.AugmentPerField
	tc.Trees = cfg.Train.Trees
	tc.Parallelism = cfg.Workers
	return tc
}

// trainFrameworks trains one framework per codec and passes each through a
// Save/Load round trip, returning the loaded frameworks at the benchmark's
// worker budget.
func trainFrameworks(cfg config, codecs []string, fields []*grid.Field) ([]*fxrz.Framework, error) {
	out := make([]*fxrz.Framework, len(codecs))
	for i, name := range codecs {
		c, err := fxrz.ByName(name)
		if err != nil {
			return nil, err
		}
		fw, err := fxrz.Train(c, fields, trainConfig(cfg))
		if err != nil {
			return nil, fmt.Errorf("training %s: %w", name, err)
		}
		var buf bytes.Buffer
		if err := fw.Save(&buf); err != nil {
			return nil, fmt.Errorf("saving %s: %w", name, err)
		}
		loaded, err := fxrz.Load(&buf)
		if err != nil {
			return nil, fmt.Errorf("loading %s: %w", name, err)
		}
		out[i] = loaded.WithParallelism(cfg.Workers)
	}
	return out, nil
}

// fpzipBoundedPrecision is the lowest precision fpzip's contract bounds:
// at 9 bits or fewer the exponent is truncated and RelativeErrorBound is
// documented as outside the codec contract.
const fpzipBoundedPrecision = 10

// checkBound verifies a reconstruction keeps the codec's error bound: the
// absolute knob for sz, zfp and mgard, fpzip's relative bound per sample
// where its contract gives one.
func checkBound(codec string, knob float64, orig, rec *grid.Field) error {
	if len(orig.Data) != len(rec.Data) {
		return fmt.Errorf("%s: reconstruction has %d samples, want %d", codec, len(rec.Data), len(orig.Data))
	}
	if codec == "fpzip" {
		p := int(math.Round(knob))
		if p < fpzipBoundedPrecision {
			return nil
		}
		rel := fpzip.RelativeErrorBound(p)
		for i, v := range orig.Data {
			if d := math.Abs(float64(rec.Data[i]) - float64(v)); d > rel*math.Abs(float64(v)) {
				return fmt.Errorf("fpzip: sample %d error %g exceeds relative bound %g of |%g|", i, d, rel, v)
			}
		}
		return nil
	}
	e, err := fxrz.MaxAbsError(orig, rec)
	if err != nil {
		return err
	}
	if e > knob {
		return fmt.Errorf("%s: max abs error %g exceeds bound %g", codec, e, knob)
	}
	return nil
}

// archivePass holds what one pass over the op list measured.
type archivePass struct {
	lat            [][]float64 // round-trip ms per op, per codec
	pack, unpack   []rate      // per codec
	ratioErr, psnr []float64   // first pass only
	perCodecErr    [][]float64
	unbounded      int             // fpzip ops below the precision its bound covers
	cpu            []time.Duration // process CPU per codec
	wall           time.Duration
}

func runArchive(r *bench) error {
	spec := r.cfg.Archive
	fields, err := archiveFields(r.seed)
	if err != nil {
		return err
	}
	train, err := trainingFields()
	if err != nil {
		return err
	}
	for _, f := range fields {
		r.fieldBytes += int64(f.Bytes())
		r.printf("field %s dims=%v bytes=%d", f.Name, f.Dims, f.Bytes())
	}
	fws, err := setupReps(r, func() ([]*fxrz.Framework, error) {
		return trainFrameworks(r.cfg, spec.Codecs, train)
	}, nil)
	if err != nil {
		return err
	}
	ranges := make([][][2]float64, len(fields))
	for i, f := range fields {
		for _, fw := range fws {
			lo, hi := fw.ValidRatioRange(f)
			ranges[i] = append(ranges[i], [2]float64{lo, hi})
		}
	}
	rounds := archiveRounds(r.seed, ranges, spec.TargetsPerField, spec.TargetBand)

	if r.traced {
		base := archiveRun(r, nil, fields, fws, rounds, 0)
		var traced archivePass
		tracedPass(r, func() { traced = archiveRun(r, r.tr, fields, fws, rounds, 0) })
		reportOverhead(r, flatten(base.lat), flatten(traced.lat), base.wall, traced.wall)
		reportSpans(r)
		if err := layerSweep(r, fields, fws, spec.Codecs); err != nil {
			return err
		}
		return serveProbe(r, probeSeconds)
	}
	p := archiveRun(r, nil, fields, fws, rounds, r.seconds)
	lat := map[string][]float64{}
	var packs, unpacks []float64
	for ci, name := range spec.Codecs {
		lat[name] = p.lat[ci]
		pk, up := p.pack[ci].mbps(), p.unpack[ci].mbps()
		r.info("pack_mbps."+name, pk, "MB/s", len(p.lat[ci]), "")
		r.info("unpack_mbps."+name, up, "MB/s", len(p.lat[ci]), "")
		packs, unpacks = append(packs, pk), append(unpacks, up)
		if m, ok := median(p.perCodecErr[ci]); ok {
			r.info("ratio_err_median."+name, m.Value, "ratio", m.N, "")
		}
	}
	latencyMetrics(r, spec.Codecs, lat, "codecs, round trip CompressToRatio + DecompressParallel,")
	var cpus []float64
	for ci := range spec.Codecs {
		cpus = append(cpus, ms(p.cpu[ci])/float64(len(p.lat[ci])))
	}
	r.e2e("cpu_ms_per_op", geomean(cpus), len(flatten(p.lat)), "(process CPU per round trip, geometric mean over codecs)")
	r.info("pack_mbps", geomean(packs), "MB/s", len(spec.Codecs), "(geometric mean over codecs)")
	r.info("unpack_mbps", geomean(unpacks), "MB/s", len(spec.Codecs), "(geometric mean over codecs)")
	accuracyInfo(r, p.ratioErr, p.psnr)
	r.info("fpzip_unbounded_ops", float64(p.unbounded), "count", len(p.ratioErr),
		fmt.Sprintf("(fpzip ops whose estimated precision is below %d bits, where the codec promises no error bound)", fpzipBoundedPrecision))
	return nil
}

// archiveRun runs rounds in order, cycling, until budget has elapsed, and
// always at least one pass over all rounds, whose ops give the accuracy
// figures. Only whole rounds run, so every codec and field keeps the same
// share of the ops.
func archiveRun(r *bench, tr *tracer, fields []*grid.Field, fws []*fxrz.Framework, rounds [][]archiveOp, budget time.Duration) archivePass {
	codecs := r.cfg.Archive.Codecs
	p := archivePass{pack: make([]rate, len(codecs)), unpack: make([]rate, len(codecs)),
		perCodecErr: make([][]float64, len(codecs)), lat: make([][]float64, len(codecs)),
		cpu: make([]time.Duration, len(codecs))}
	start := time.Now()
	var req int64
	for k := 0; k < len(rounds) || time.Since(start) < budget; k++ {
		for _, op := range rounds[k%len(rounds)] {
			f, fw, name := fields[op.Field], fws[op.Codec], codecs[op.Codec]
			req++
			root := tr.start("archive.op", 0, req)
			sp := tr.start("pack."+name, root.id, req)
			cpu0 := processCPU()
			t0 := time.Now()
			blob, est, err := fw.CompressToRatio(f, op.Target)
			t1 := time.Now()
			sp.end(int64(f.Size()))
			if err != nil {
				root.end(0)
				r.op(fmt.Errorf("archive: pack %s %s: %w", name, f.Name, err))
				continue
			}
			sp = tr.start("unpack."+name, root.id, req)
			t2 := time.Now()
			rec, err := fxrz.DecompressParallel(blob, r.cfg.Workers)
			t3 := time.Now()
			p.cpu[op.Codec] += processCPU() - cpu0
			sp.end(int64(f.Size()))
			root.end(int64(f.Size()))
			if err != nil {
				r.op(fmt.Errorf("archive: unpack %s %s: %w", name, f.Name, err))
				continue
			}
			p.lat[op.Codec] = append(p.lat[op.Codec], ms(t1.Sub(t0)+t3.Sub(t2)))
			p.pack[op.Codec].add(f.Bytes(), t1.Sub(t0))
			p.unpack[op.Codec].add(f.Bytes(), t3.Sub(t2))
			if err := checkBound(name, est.Knob, f, rec); err != nil {
				r.op(fmt.Errorf("archive: %s target %.4g: %w", f.Name, op.Target, err))
				continue
			}
			r.op(nil)
			if name == "fpzip" && math.Round(est.Knob) < fpzipBoundedPrecision {
				p.unbounded++
			}
			if k < len(rounds) {
				e := ratioErr(fxrz.Ratio(f, blob), op.Target)
				p.ratioErr = append(p.ratioErr, e)
				p.perCodecErr[op.Codec] = append(p.perCodecErr[op.Codec], e)
				if q, err := fxrz.PSNR(f, rec); err == nil && !math.IsInf(q, 0) {
					p.psnr = append(p.psnr, q)
				}
			}
		}
	}
	p.wall = time.Since(start)
	return p
}

// latencyMetrics prints latency_p10_ms, the geometric mean over op classes
// of each class's 10th percentile, and latency_p50_ms, the same over
// medians, so neither depends on the mix between classes; each class's p50,
// p90 and p99 where the sample supports them; and the p90 and p99 over all
// ops. latency_p10_ms is the gated wall-clock figure: host CPU steal
// stretches some ops of a run and leaves others alone, and the fast end of
// each class holds steady where the median does not, while a slower codec,
// handler or lost parallel speed-up still moves every op.
func latencyMetrics(r *bench, classes []string, lat map[string][]float64, what string) {
	var p10s, p50s, all []float64
	for _, k := range classes {
		s := sortedCopy(lat[k])
		all = append(all, s...)
		r.info("latency_ms."+k, meanOf(s), "ms", len(s), "(mean;"+percentiles(s)+")")
		p50, ok := percentile(s, 500)
		if !ok {
			r.op(fmt.Errorf("latency: %d %s samples are too few for a median", len(s), k))
			continue
		}
		p10, _ := percentile(s, 100)
		p10s, p50s = append(p10s, p10), append(p50s, p50)
	}
	if len(p50s) == len(classes) {
		r.e2e("latency_p10_ms", geomean(p10s), len(all), "(geometric mean over "+what+" of each one's 10th percentile)")
		r.info("latency_p50_ms", geomean(p50s), "ms", len(all), "(the same over medians)")
	}
	s := sortedCopy(all)
	for _, q := range []int{900, 990} {
		if v, ok := percentile(s, q); ok {
			r.info(fmt.Sprintf("latency_p%d_ms", q/10), v, "ms", len(s), "(over all ops)")
		}
	}
}

// percentiles formats the p50, p90 and p99 a sorted sample supports.
func percentiles(sorted []float64) string {
	out := ""
	for _, q := range []int{500, 900, 990} {
		if v, ok := percentile(sorted, q); ok {
			out += fmt.Sprintf(" p%d=%.4g", q/10, v)
		}
	}
	return out
}

// accuracyInfo prints the paper's accuracy figures: estimation error and
// reconstruction PSNR at the achieved ratio.
func accuracyInfo(r *bench, errs, psnr []float64) {
	s := sortedCopy(errs)
	if v, ok := percentile(s, 500); ok {
		r.info("ratio_err_median", v, "ratio", len(s), "(|achieved-target|/target)")
	}
	if v, ok := percentile(s, 900); ok {
		r.info("ratio_err_p90", v, "ratio", len(s), "")
	}
	if m, ok := median(psnr); ok {
		r.info("psnr_db_median", m.Value, "dB", m.N, "")
	}
}

func flatten(xs [][]float64) []float64 {
	var out []float64
	for _, x := range xs {
		out = append(out, x...)
	}
	return out
}
