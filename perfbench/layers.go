package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	fxrz "github.com/fxrz-go/fxrz"
	"github.com/fxrz-go/fxrz/internal/core"
	"github.com/fxrz-go/fxrz/internal/fieldio"
	"github.com/fxrz-go/fxrz/internal/grid"
	"github.com/fxrz-go/fxrz/internal/obs"
)

// reportOverhead prints the tracing overhead: the traced pass minus the
// untraced pass over the same ops.
func reportOverhead(r *bench, base, traced []float64, baseWall, tracedWall time.Duration) {
	b, okb := median(base)
	t, okt := median(traced)
	if okb && okt {
		r.printf("trace_overhead p50 %+.4f ms (traced %.4f - untraced %.4f, n=%d/%d)", t.Value-b.Value, t.Value, b.Value, t.N, b.N)
	}
	r.printf("trace_overhead wall %+.3f s (traced %.3f - untraced %.3f)", (tracedWall - baseWall).Seconds(), tracedWall.Seconds(), baseWall.Seconds())
}

// reportSpans prints count, total and self time per span name.
func reportSpans(r *bench) {
	stats := aggregate(r.tr.snapshot())
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		st := stats[n]
		r.printf("span  %-36s count=%-6d total=%10.3f ms self=%10.3f ms", n, st.Count, ms(st.Total), ms(st.Self))
	}
}

// spanStats aggregates the spans recorded so far under one name.
func spanStats(r *bench, name string) *layerStat {
	var sel []span
	for _, s := range r.tr.snapshot() {
		if s.Name == name {
			sel = append(sel, s)
		}
	}
	if st := aggregate(sel)[name]; st != nil {
		return st
	}
	return &layerStat{Name: name}
}

// perWork reports a span's total time in ns per unit of work.
func perWork(r *bench, metricName, spanName string) {
	st := spanStats(r, spanName)
	if st.Work == 0 {
		r.op(fmt.Errorf("layer %s: no work recorded", spanName))
		return
	}
	r.layer(metricName, float64(st.Total)/float64(st.Work), st.Count, "")
}

// perCall reports a span's mean duration scaled by unitNS.
func perCall(r *bench, metricName, spanName string, unitNS float64) {
	st := spanStats(r, spanName)
	if st.Count == 0 {
		r.op(fmt.Errorf("layer %s: no spans recorded", spanName))
		return
	}
	r.layer(metricName, float64(st.Total)/float64(st.Count)/unitNS, st.Count, "")
}

// layerSweep times each library layer's public functions on the workload's
// own fields: training (curve sweep and model fit), the split estimate
// path (features → CA → EstimateFromFeatures → Compress, which must equal
// CompressToRatio's knob and bytes), every codec at 2 and 1 workers, region
// decode and point reads over indexed sz and zfp streams, and fieldio
// parsing. fws may be nil; the sweep then trains its own frameworks.
func layerSweep(r *bench, fields []*grid.Field, fws []*fxrz.Framework, codecs []string) error {
	tr := r.tr
	workers := r.cfg.Workers
	train, err := trainingFields()
	if err != nil {
		return err
	}
	// Training layers: the stationary sweep, then the fit given its curves.
	tc := trainConfig(r.cfg)
	for _, name := range codecs {
		c, err := fxrz.ByName(name)
		if err != nil {
			return err
		}
		curves := map[string]*core.Curve{}
		sp := tr.start("core.sweep", 0, 0)
		for _, f := range train {
			knobs := core.SweepKnobs(c.Axis(), f, tc.StationaryPoints, tc.RelKnobMin, tc.RelKnobMax)
			cv, err := core.BuildCurveParallel(c, f, knobs, workers)
			if err != nil {
				return fmt.Errorf("sweep %s on %s: %w", name, f.Name, err)
			}
			curves[f.Name] = cv
		}
		sp.end(int64(len(train)))
		sp = tr.start("ml.fit", 0, 0)
		_, err = core.TrainWithCurves(c, train, tc, curves)
		sp.end(int64(len(train)))
		if err != nil {
			return fmt.Errorf("fit %s: %w", name, err)
		}
	}
	r.layer("core.sweep_s", spanStats(r, "core.sweep").Total.Seconds(), len(codecs), "(BuildCurveParallel over the training fields, all codecs)")
	r.layer("ml.fit_s", spanStats(r, "ml.fit").Total.Seconds(), len(codecs), "(TrainWithCurves given the curves, all codecs)")

	if fws == nil {
		if fws, err = trainFrameworks(r.cfg, codecs, train); err != nil {
			return err
		}
	}
	rng := rngFor(r.seed, "sweep/targets")
	blobs := map[string][]byte{} // first field's stream per codec, for roi
	var req int64
	for ci, name := range codecs {
		fw := fws[ci]
		c := fxrz.WithParallelism(fw.Compressor(), workers)
		c1 := fxrz.WithParallelism(fw.Compressor(), 1)
		var bytesOut int64
		var errs []float64
		for fi, f := range fields {
			req++
			lo, hi := fw.ValidRatioRange(f)
			target := logLerp(lo, hi, 0.2+0.6*rng.Float64())
			n := int64(f.Size())
			root := tr.start("sweep.split", 0, req)
			sp := tr.start("core.features", root.id, req)
			ft := core.ExtractFeaturesParallel(f, tc.Stride, workers)
			sp.end(n)
			sp = tr.start("core.ca", root.id, req)
			caR := core.NonConstantRatioParallel(f, tc.BlockSide, tc.Lambda, workers)
			sp.end(n)
			sp = tr.start("ml.predict", root.id, req)
			est, err := fw.EstimateFromFeatures(ft, target, caR)
			sp.end(1)
			if err != nil {
				root.end(0)
				r.op(fmt.Errorf("sweep %s %s: estimate: %w", name, f.Name, err))
				continue
			}
			sp = tr.start(name+".compress", root.id, req)
			blob, err := c.Compress(f, est.Knob)
			sp.end(n)
			root.end(n)
			if err != nil {
				r.op(fmt.Errorf("sweep %s %s: compress: %w", name, f.Name, err))
				continue
			}
			ref, refEst, err := fw.CompressToRatio(f, target)
			if err != nil {
				r.op(fmt.Errorf("sweep %s %s: CompressToRatio: %w", name, f.Name, err))
				continue
			}
			if refEst.Knob != est.Knob || !bytes.Equal(ref, blob) {
				r.op(fmt.Errorf("sweep %s %s: split path knob %g (%d bytes) != CompressToRatio knob %g (%d bytes)",
					name, f.Name, est.Knob, len(blob), refEst.Knob, len(ref)))
				continue
			}
			bytesOut += int64(len(blob))
			errs = append(errs, ratioErr(fxrz.Ratio(f, blob), target))
			if fi == 0 {
				blobs[name] = blob
			}

			sp = tr.start(name+".compress_w1", 0, req)
			b1, err := c1.Compress(f, est.Knob)
			sp.end(n)
			if err == nil && !bytes.Equal(b1, blob) {
				err = fmt.Errorf("stream differs from the 2-worker stream")
			}
			if err != nil {
				r.op(fmt.Errorf("sweep %s %s: compress at 1 worker: %w", name, f.Name, err))
				continue
			}
			sp = tr.start(name+".decompress", 0, req)
			rec, err := fxrz.DecompressParallel(blob, workers)
			sp.end(n)
			if err != nil {
				r.op(fmt.Errorf("sweep %s %s: decompress: %w", name, f.Name, err))
				continue
			}
			sp = tr.start(name+".decompress_w1", 0, req)
			rec1, err := fxrz.DecompressParallel(blob, 1)
			sp.end(n)
			if err == nil && !sameData(rec.Data, rec1.Data) {
				err = fmt.Errorf("reconstruction differs from the 2-worker one")
			}
			if err == nil {
				err = checkBound(name, est.Knob, f, rec)
			}
			r.op(err)
		}
		perWork(r, name+".compress_ns_per_elem", name+".compress")
		perWork(r, name+".compress_w1_ns_per_elem", name+".compress_w1")
		perWork(r, name+".decompress_ns_per_elem", name+".decompress")
		perWork(r, name+".decompress_w1_ns_per_elem", name+".decompress_w1")
		r.layer(name+".bytes_out", float64(bytesOut), len(errs), "(exact; sum over the sweep's streams)")
		if m, ok := median(errs); ok {
			r.info(name+".ratio_err_median", m.Value, "ratio", m.N, "")
		} else {
			r.info(name+".ratio_err_mean", meanOf(errs), "ratio", len(errs), "(too few samples for a median)")
		}
	}
	perWork(r, "core.features_ns_per_elem", "core.features")
	perWork(r, "core.ca_ns_per_elem", "core.ca")
	perCall(r, "ml.predict_us", "ml.predict", 1e3)

	if err := roiSweep(r, fields[0], blobs); err != nil {
		return err
	}

	for i, f := range fields {
		var buf bytes.Buffer
		if err := fieldio.Write(&buf, f); err != nil {
			return err
		}
		sp := tr.start("fieldio.read", 0, int64(i+1))
		g, err := fieldio.Read(bytes.NewReader(buf.Bytes()))
		sp.end(int64(buf.Len()))
		if err == nil && !sameData(g.Data, f.Data) {
			err = fmt.Errorf("fieldio round trip of %s differs", f.Name)
		}
		r.op(err)
	}
	perCall(r, "fieldio.read_us", "fieldio.read", 1e3)
	return nil
}

// roiSweep indexes the sz and zfp streams of one field and times full
// decode, seeded region decodes (each checked bit-identical against the
// full decode's slice) and warm point reads.
func roiSweep(r *bench, f *grid.Field, blobs map[string][]byte) error {
	tr := r.tr
	rng := rngFor(r.seed, "sweep/roi")
	for _, name := range r.cfg.Region.Codecs {
		blob := blobs[name]
		if blob == nil {
			return fmt.Errorf("roi sweep: no %s stream", name)
		}
		sp := tr.start("roi.build_index", 0, 0)
		idx, err := fxrz.IndexBlob(blob)
		sp.end(1)
		if err != nil {
			return fmt.Errorf("roi sweep: indexing %s: %w", name, err)
		}
		sp = tr.start("roi.full_decode."+name, 0, 0)
		full, err := fxrz.Decompress(idx)
		sp.end(1)
		if err != nil {
			return fmt.Errorf("roi sweep: full decode %s: %w", name, err)
		}
		for k := 0; k < 16; k++ {
			frac := 1 / float64(int(1)<<(3+rng.Intn(7)))
			lo, hi := randomBox(rng, f.Dims, frac)
			sp := tr.start("roi.region."+name, 0, int64(k+1))
			got, err := fxrz.DecompressRegion(idx, lo, hi)
			sp.end(int64(boxSize(lo, hi)))
			r.op(checkRegion(full, got, lo, hi, err))
		}
		rd, err := fxrz.OpenReader(idx)
		if err != nil {
			return fmt.Errorf("roi sweep: reader %s: %w", name, err)
		}
		pts := randomPoints(rng, f.Dims, 256)
		for _, p := range pts { // cold touch: the timed reads are warm
			if _, err := rd.At(p...); err != nil {
				return fmt.Errorf("roi sweep: At %v: %w", p, err)
			}
		}
		sp = tr.start("roi.at", 0, 0)
		var bad error
		for _, p := range pts {
			v, err := rd.At(p...)
			if err == nil && v != full.At(p...) {
				err = fmt.Errorf("roi: At%v = %g, full decode has %g", p, v, full.At(p...))
			}
			if err != nil && bad == nil {
				bad = err
			}
		}
		sp.end(int64(len(pts)))
		r.op(bad)
	}
	perCall(r, "roi.build_index_ms", "roi.build_index", 1e6)
	for _, name := range r.cfg.Region.Codecs {
		perWork(r, "roi.region_ns_per_out_elem."+name, "roi.region."+name)
		perCall(r, "roi.full_decode_ms."+name, "roi.full_decode."+name, 1e6)
	}
	perWork(r, "roi.at_ns", "roi.at")
	return nil
}

// checkRegion compares a region decode with the same box of a full decode.
func checkRegion(full, got *grid.Field, lo, hi []int, err error) error {
	if err != nil {
		return fmt.Errorf("region %v-%v: %w", lo, hi, err)
	}
	want, err := grid.SliceRegion(full, lo, hi)
	if err != nil {
		return err
	}
	if !sameData(want.Data, got.Data) {
		return fmt.Errorf("region %v-%v differs from the full decode's slice", lo, hi)
	}
	return nil
}

// sameData compares sample bits, so NaNs compare equal to themselves.
func sameData(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] && !(a[i] != a[i] && b[i] != b[i]) {
			return false
		}
	}
	return true
}

func boxSize(lo, hi []int) int {
	n := 1
	for i := range lo {
		n *= hi[i] - lo[i]
	}
	return n
}

func randomPoints(rng *rand.Rand, dims []int, n int) [][]int {
	out := make([][]int, n)
	for i := range out {
		p := make([]int, len(dims))
		for j, d := range dims {
			p[j] = rng.Intn(d)
		}
		out[i] = p
	}
	return out
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// obsPrefixes are the program's existing counters a traced run reports.
var obsPrefixes = []string{"ca/blocks_", "entropy/legacy_decode", "zfp/par_chunks", "qos/shed/"}

// tracedPass runs fn with the program's obs recording on, as a traced run
// does, and prints the counters it left.
func tracedPass(r *bench, fn func()) {
	wasOn := obs.Enabled()
	if !wasOn {
		obs.Enable()
	}
	before := obs.TakeSnapshot().Counters
	fn()
	after := obs.TakeSnapshot().Counters
	if !wasOn {
		obs.Disable()
	}
	names := make([]string, 0, len(after))
	for n := range after {
		for _, p := range obsPrefixes {
			if strings.HasPrefix(n, p) {
				names = append(names, n)
				break
			}
		}
	}
	sort.Strings(names)
	for _, n := range names {
		r.printf("obs   %-36s %d", n, after[n]-before[n])
	}
}
