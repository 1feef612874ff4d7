package main

import (
	"reflect"
	"testing"
)

func TestSeededOpListsRepeatPerSeedAndDifferAcrossSeeds(t *testing.T) {
	cfg, err := loadConfig("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	ranges := [][][2]float64{{{5, 50}, {3, 30}}, {{10, 200}, {2, 9}}}
	dims := [][]int{{32, 32, 32}, {16, 24, 20}}
	lists := map[string]func(seed int64) any{
		"archive": func(seed int64) any { return archiveRounds(seed, ranges, 5, cfg.Archive.TargetBand) },
		"serve": func(seed int64) any {
			return poissonSchedule(rngFor(seed, "serve/phase1"), 200, 2e9, cfg.Serve)
		},
		"serve targets": func(seed int64) any { return serveTargets(seed, ranges[0], 4) },
		"region":        func(seed int64) any { return regionOps(seed, 200, dims, cfg.Region) },
	}
	for name, gen := range lists {
		a, b, c := gen(7), gen(7), gen(8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different op lists", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same op list", name)
		}
	}
}

func TestArchiveRoundsAreStratified(t *testing.T) {
	band := [2]float64{0.1, 0.9}
	lo, hi := 4.0, 400.0
	rounds := archiveRounds(3, [][][2]float64{{{lo, hi}, {lo, hi}}, {{lo, hi}, {lo, hi}}}, 5, band)
	for k, ops := range rounds {
		if len(ops) != 4 {
			t.Fatalf("round %d has %d ops, want one per (field, codec)", k, len(ops))
		}
		// Stratum k of the band, on the log scale.
		slo := logLerp(lo, hi, band[0]+(band[1]-band[0])*float64(k)/5)
		shi := logLerp(lo, hi, band[0]+(band[1]-band[0])*float64(k+1)/5)
		for _, op := range ops {
			if op.Target < slo || op.Target > shi {
				t.Errorf("round %d target %g outside its stratum [%g, %g]", k, op.Target, slo, shi)
			}
		}
	}
}

func TestRegionBoxesFitTheField(t *testing.T) {
	cfg, err := loadConfig("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dims := []int{128, 128, 128}
	for _, op := range regionOps(11, 500, [][]int{dims}, cfg.Region) {
		if op.Lo == nil {
			if len(op.Points) != cfg.Region.PointsPerBatch {
				t.Fatalf("point batch of %d, want %d", len(op.Points), cfg.Region.PointsPerBatch)
			}
			continue
		}
		vol := 1.0
		for i, d := range dims {
			if op.Lo[i] < 0 || op.Hi[i] > d || op.Lo[i] >= op.Hi[i] {
				t.Fatalf("box %v-%v outside %v", op.Lo, op.Hi, dims)
			}
			vol *= float64(op.Hi[i]-op.Lo[i]) / float64(d)
		}
		if vol < 1.0/2048 || vol > 1.0/2 {
			t.Errorf("box %v-%v covers %g of the volume", op.Lo, op.Hi, vol)
		}
	}
}
