package core

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"

	"github.com/fxrz-go/fxrz/internal/compress"
	"github.com/fxrz-go/fxrz/internal/grid"
	"github.com/fxrz-go/fxrz/internal/ml"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	fc := &fakeCompressor{scale: 100}
	var fields []*grid.Field
	for i := 0; i < 2; i++ {
		fields = append(fields, waveField("train", 12, float64(2+i)))
	}
	fw, err := Train(fc, fields, Config{Trees: 20, StationaryPoints: 10, AugmentPerField: 40, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fw.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFramework(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.CompressorName() != "fake" {
		t.Errorf("compressor name %q", got.CompressorName())
	}
	lo1, hi1 := fw.TrainedRatioRange()
	lo2, hi2 := got.TrainedRatioRange()
	if lo1 != lo2 || hi1 != hi2 {
		t.Errorf("ratio range changed: (%v,%v) vs (%v,%v)", lo1, hi1, lo2, hi2)
	}
	test := waveField("test", 12, 2.5)
	for _, tcr := range []float64{10, 30, 60} {
		a, err := fw.EstimateConfig(test, tcr)
		if err != nil {
			t.Fatal(err)
		}
		b, err := got.EstimateConfig(test, tcr)
		if err != nil {
			t.Fatal(err)
		}
		if a.Knob != b.Knob {
			t.Errorf("tcr %v: knob %v vs %v after reload", tcr, a.Knob, b.Knob)
		}
	}
	if got.Stats().Samples != fw.Stats().Samples {
		t.Errorf("stats lost: %d vs %d", got.Stats().Samples, fw.Stats().Samples)
	}
}

func TestSaveRejectsNonForest(t *testing.T) {
	fc := &fakeCompressor{scale: 100}
	fw, err := Train(fc, []*grid.Field{waveField("a", 12, 3)},
		Config{Model: ModelAdaBoost, StationaryPoints: 8, AugmentPerField: 30})
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Save(&bytes.Buffer{}); err == nil {
		t.Fatal("AdaBoost framework saved without error")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := LoadFramework(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := LoadFramework(strings.NewReader("not a model at all, definitely")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := LoadFramework(strings.NewReader("FXRZMODEL1 but then junk")); err == nil {
		t.Error("corrupt body accepted")
	}
}

// TestLoadRejectsCyclicModel: Predict walks a tree's child indices until it
// reaches a leaf, so a model file whose tree loops or points out of range
// must fail to load rather than hang or panic the first estimate.
func TestLoadRejectsCyclicModel(t *testing.T) {
	// Mirrors of the forest's gob shape; gob matches fields by name.
	type node struct {
		Feature          int
		Threshold, Value float64
		Left, Right      int
	}
	type tree struct {
		Dim   int
		Nodes []node
	}
	type forest struct {
		Cfg   ml.ForestConfig
		Trees []tree
	}
	for name, nodes := range map[string][]node{
		"self loop":    {{Feature: 0, Left: 0, Right: 0}},
		"out of range": {{Feature: 0, Left: 1, Right: 9}, {Feature: -1}},
	} {
		var fb bytes.Buffer
		if err := gob.NewEncoder(&fb).Encode(forest{Trees: []tree{{Dim: 6, Nodes: nodes}}}); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.WriteString(persistMagic)
		dto := frameworkDTO{Cfg: DefaultConfig(), AxisKind: int(compress.AbsErrorBound), AxisMin: 1e-6, AxisMax: 1, Compressor: "sz", Forest: fb.Bytes(), RatioLo: 2, RatioHi: 50}
		if err := gob.NewEncoder(&buf).Encode(dto); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadFramework(&buf); err == nil {
			t.Errorf("%s: malformed tree loaded", name)
		}
	}
}

// FuzzLoadFramework: any byte string either fails to load or yields a
// framework whose estimates return. Seeds include a real saved sz model
// (regenerate with `go run ./cmd/genfixtures`).
func FuzzLoadFramework(f *testing.F) {
	f.Add([]byte(persistMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		fw, err := LoadFramework(bytes.NewReader(data))
		if err != nil {
			return
		}
		_, _ = fw.EstimateFromFeatures(Features{ValueRange: 1, MeanValue: 0.5, MND: 0.1, MLD: 0.1, MSD: 0.1}, 10, 1)
	})
}
