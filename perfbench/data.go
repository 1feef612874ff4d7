package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"github.com/fxrz-go/fxrz/internal/datagen"
	"github.com/fxrz-go/fxrz/internal/grid"
)

// rngFor returns an independent generator for one purpose of one seed, so
// adding a draw for one purpose never shifts another's sequence.
func rngFor(seed int64, purpose string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, purpose)
	return rand.New(rand.NewSource(int64(h.Sum64() >> 1)))
}

// trainingFields is the fixed training split shared by every framework the
// benchmark trains: early time steps, the first configurations and the
// small RTM mesh of each application, at sizes that keep training short.
func trainingFields() ([]*grid.Field, error) {
	var out []*grid.Field
	add := func(f *grid.Field, err error) error {
		if err == nil {
			out = append(out, f)
		}
		return err
	}
	for _, ts := range []int{1, 4} {
		if err := add(datagen.NyxField("baryon_density", 1, ts, 24)); err != nil {
			return nil, err
		}
	}
	for _, field := range datagen.HurricaneFields {
		for _, ts := range []int{5, 25} {
			if err := add(datagen.HurricaneField(field, ts, 8)); err != nil {
				return nil, err
			}
		}
	}
	rtm, err := datagen.RTMSnapshots("small", []int{120, 240}, 8)
	if err != nil {
		return nil, err
	}
	out = append(out, rtm...)
	for _, cfg := range []int{1, 2} {
		if err := add(datagen.QMCPackField(cfg, 0, 16)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// archiveFields is the test split the archive workload packs: one field of
// each application, each larger than a 2 MiB L2, at seeded time steps.
func archiveFields(seed int64) ([]*grid.Field, error) {
	rng := rngFor(seed, "archive/steps")
	nyxTS := 1 + rng.Intn(6)
	hurTS := 40 + rng.Intn(16)
	rtmStep := 240 + 10*rng.Intn(8)
	spin := rng.Intn(2)
	var out []*grid.Field
	nyx, err := datagen.NyxField("baryon_density", 2, nyxTS, 84)
	if err != nil {
		return nil, err
	}
	out = append(out, nyx)
	for _, field := range datagen.HurricaneFields {
		f, err := datagen.HurricaneField(field, hurTS, 28)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	rtm, err := datagen.RTMSnapshots("big", []int{rtmStep}, 17)
	if err != nil {
		return nil, err
	}
	out = append(out, rtm[0])
	qmc, err := datagen.QMCPackField(3, spin, 32)
	if err != nil {
		return nil, err
	}
	return append(out, qmc), nil
}

// archiveOp is one fixed-ratio round trip: pack field Field with codec
// Codec at Target, then unpack it in full.
type archiveOp struct {
	Field  int
	Codec  int
	Target float64
}

// archiveRounds draws n targets per (field, codec) from the middle band of
// the framework's valid ratio range, stratified so every draw lands in its
// own slice of the log range. Round t holds each (field, codec) pair once,
// at its stratum-t target, in shuffled order, so every round has the same
// mix. ranges[field][codec] is the valid [lo, hi] range.
func archiveRounds(seed int64, ranges [][][2]float64, n int, band [2]float64) [][]archiveOp {
	rng := rngFor(seed, "archive/targets")
	rounds := make([][]archiveOp, n)
	for fi, perCodec := range ranges {
		for ci, rg := range perCodec {
			for t := 0; t < n; t++ {
				u := band[0] + (band[1]-band[0])*(float64(t)+rng.Float64())/float64(n)
				rounds[t] = append(rounds[t], archiveOp{Field: fi, Codec: ci, Target: logLerp(rg[0], rg[1], u)})
			}
		}
	}
	for _, ops := range rounds {
		rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	}
	return rounds
}

// logLerp interpolates between lo and hi on a log scale; a degenerate range
// gives lo, and never less than 1.01.
func logLerp(lo, hi, u float64) float64 {
	if !(lo > 0) || !(hi > lo) {
		return math.Max(lo, 1.01)
	}
	return lo * math.Pow(hi/lo, u)
}

// servePayloads are the small fields (24³ to 48³) the serve workload
// sends: the Nyx fields at each size in a fixed assignment (every pairing
// once for 16 payloads), so the seed changes time steps, not the cost mix.
func servePayloads(seed int64, n int) ([]*grid.Field, error) {
	rng := rngFor(seed, "serve/payloads")
	sizes := []int{24, 32, 40, 48}
	nf := len(datagen.NyxFields)
	out := make([]*grid.Field, n)
	for i := range out {
		field := datagen.NyxFields[(i+i/nf)%nf]
		f, err := datagen.NyxField(field, 2, 1+rng.Intn(6), sizes[i%len(sizes)])
		if err != nil {
			return nil, err
		}
		f.Name = fmt.Sprintf("%s/p%d", f.Name, i)
		out[i] = f
	}
	return out, nil
}

// serveModelFields train the served model: Nyx configuration 1.
func serveModelFields() ([]*grid.Field, error) {
	var out []*grid.Field
	for _, field := range datagen.NyxFields {
		for _, ts := range []int{1, 4} {
			f, err := datagen.NyxField(field, 1, ts, 32)
			if err != nil {
				return nil, err
			}
			out = append(out, f)
		}
	}
	return out, nil
}

// Request kinds of the serve mix.
const (
	kindEstimate         = "estimate"
	kindEstimateFeatures = "estimate-features"
	kindEstimateMany     = "estimate-many"
	kindPack             = "pack"
	kindUnpack           = "unpack"
)

var serveKinds = []string{kindEstimate, kindEstimateFeatures, kindEstimateMany, kindPack, kindUnpack}

// serveReq is one scheduled request: its due offset from the phase start,
// its kind and what it carries.
type serveReq struct {
	DueNS   int64
	Kind    string
	Payload int   // payload field index
	Target  int   // target index into the payload's targets
	Items   []int // estimate-many: payload indexes, all at Target
	Region  bool  // unpack: decode a region instead of the full field
}

// poissonSchedule draws arrivals at rate per second over dur, each with a
// kind drawn from the mix and seeded payload, target and region choices.
func poissonSchedule(rng *rand.Rand, rate float64, durNS int64, spec serveSpec) []serveReq {
	var out []serveReq
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate * 1e9
		if int64(t) >= durNS {
			return out
		}
		req := serveReq{DueNS: int64(t), Kind: pickKind(rng, spec.Mix),
			Payload: rng.Intn(spec.Payloads), Target: rng.Intn(spec.TargetsPerPayload)}
		switch req.Kind {
		case kindEstimateMany:
			for i := 0; i < spec.BatchItems; i++ {
				req.Items = append(req.Items, rng.Intn(spec.Payloads))
			}
		case kindUnpack:
			req.Region = rng.Float64() < spec.RegionUnpackShare
		}
		out = append(out, req)
	}
}

func pickKind(rng *rand.Rand, mix map[string]float64) string {
	var total float64
	for _, k := range serveKinds {
		total += mix[k]
	}
	u := rng.Float64() * total
	for _, k := range serveKinds {
		u -= mix[k]
		if u < 0 {
			return k
		}
	}
	return serveKinds[0]
}

// serveTargets draws the seeded targets of each payload inside its valid
// range.
func serveTargets(seed int64, ranges [][2]float64, n int) [][]float64 {
	rng := rngFor(seed, "serve/targets")
	out := make([][]float64, len(ranges))
	for i, rg := range ranges {
		for t := 0; t < n; t++ {
			u := 0.1 + 0.8*(float64(t)+rng.Float64())/float64(n)
			out[i] = append(out[i], logLerp(rg[0], rg[1], u))
		}
	}
	return out
}

// regionFields are the 128³-class fields the region-read workload indexes.
func regionFields(seed int64, size int) ([]*grid.Field, error) {
	rng := rngFor(seed, "region/steps")
	var out []*grid.Field
	for _, field := range []string{"baryon_density", "temperature"} {
		f, err := datagen.NyxField(field, 2, 1+rng.Intn(6), size)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

// regionOp is one read: a box decode of stream Stream, or a batch of point
// reads through its RegionReader.
type regionOp struct {
	Stream int
	Lo, Hi []int   // box, half-open
	Points [][]int // point batch when Lo is nil
}

// regionOps draws n seeded reads over streams of the given dims: boxes
// whose volume is 2^k of the field for k uniform in fracLog2, at random
// aspect and position, and point batches.
func regionOps(seed int64, n int, dims [][]int, spec regionSpec) []regionOp {
	rng := rngFor(seed, "region/ops")
	ops := make([]regionOp, n)
	for i := range ops {
		s := rng.Intn(len(dims))
		d := dims[s]
		op := regionOp{Stream: s}
		if rng.Float64() < spec.RegionShare {
			k := float64(spec.BoxFracLog2[0]) + rng.Float64()*float64(spec.BoxFracLog2[1]-spec.BoxFracLog2[0])
			op.Lo, op.Hi = randomBox(rng, d, math.Exp2(k))
		} else {
			for p := 0; p < spec.PointsPerBatch; p++ {
				pt := make([]int, len(d))
				for j := range d {
					pt[j] = rng.Intn(d[j])
				}
				op.Points = append(op.Points, pt)
			}
		}
		ops[i] = op
	}
	return ops
}

// randomBox returns a box of about frac of the volume: each side is the
// field side times frac^(1/nd) scaled by a random aspect factor in [0.5, 2]
// (renormalised so the product holds), placed uniformly.
func randomBox(rng *rand.Rand, dims []int, frac float64) (lo, hi []int) {
	nd := len(dims)
	aspect := make([]float64, nd)
	var logSum float64
	for i := range aspect {
		aspect[i] = math.Log(0.5) + rng.Float64()*math.Log(4)
		logSum += aspect[i]
	}
	lo, hi = make([]int, nd), make([]int, nd)
	side := math.Pow(frac, 1/float64(nd))
	for i, d := range dims {
		e := int(math.Round(float64(d) * side * math.Exp(aspect[i]-logSum/float64(nd))))
		if e < 1 {
			e = 1
		}
		if e > d {
			e = d
		}
		lo[i] = rng.Intn(d - e + 1)
		hi[i] = lo[i] + e
	}
	return lo, hi
}
