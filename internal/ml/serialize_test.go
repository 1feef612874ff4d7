package ml

import (
	"bytes"
	"encoding/gob"
	"math"
	"strings"
	"testing"
)

func TestForestRoundTrip(t *testing.T) {
	X, y := synth(120, 3, 7, 0.1)
	f := NewForest(ForestConfig{Trees: 8, Seed: 3})
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	blob, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var g Forest
	if err := g.UnmarshalBinary(blob); err != nil {
		t.Fatalf("trained forest rejected on reload: %v", err)
	}
	for _, x := range X {
		if f.Predict(x) != g.Predict(x) {
			t.Fatalf("prediction changed after reload at %v", x)
		}
	}
}

// TestForestRejectsMalformedTrees: a model file is untrusted input, and
// Predict walks child indices until it reaches a leaf, so a tree that could
// loop, index out of range or compare against NaN must fail to load.
func TestForestRejectsMalformedTrees(t *testing.T) {
	leaf := nodeDTO{Feature: -1, Value: 1}
	split := func(feature int, thr float64, l, r int) nodeDTO {
		return nodeDTO{Feature: feature, Threshold: thr, Left: l, Right: r}
	}
	cases := map[string]struct {
		tree treeDTO
		want string
	}{
		"self loop":     {treeDTO{Dim: 2, Nodes: []nodeDTO{split(0, 0, 0, 0)}}, "children 0/0"},
		"back edge":     {treeDTO{Dim: 2, Nodes: []nodeDTO{split(0, 0, 1, 2), leaf, split(1, 0, 0, 1)}}, "node 2 of 3 has children 0/1"},
		"out of range":  {treeDTO{Dim: 2, Nodes: []nodeDTO{split(0, 0, 1, 5), leaf}}, "children 1/5"},
		"negative":      {treeDTO{Dim: 2, Nodes: []nodeDTO{split(0, 0, -1, 1), leaf}}, "children -1/1"},
		"NaN threshold": {treeDTO{Dim: 2, Nodes: []nodeDTO{split(0, math.NaN(), 1, 2), leaf, leaf}}, "non-finite threshold"},
		"Inf threshold": {treeDTO{Dim: 2, Nodes: []nodeDTO{split(0, math.Inf(1), 1, 2), leaf, leaf}}, "non-finite threshold"},
		"bad feature":   {treeDTO{Dim: 2, Nodes: []nodeDTO{split(2, 0, 1, 2), leaf, leaf}}, "feature 2 of 2"},
	}
	good := treeDTO{Dim: 2, Nodes: []nodeDTO{split(1, 0.5, 1, 2), leaf, {Feature: -1, Value: 3}}}
	encode := func(trees ...treeDTO) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(forestDTO{Cfg: ForestConfig{Trees: len(trees)}, Trees: trees}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	var f Forest
	if err := f.UnmarshalBinary(encode(good)); err != nil {
		t.Fatalf("well-formed tree rejected: %v", err)
	}
	if got := f.Predict([]float64{0, 1}); got != 3 {
		t.Errorf("well-formed tree predicts %v, want 3", got)
	}
	for name, tc := range cases {
		err := f.UnmarshalBinary(encode(good, tc.tree))
		if err == nil || !strings.Contains(err.Error(), "tree 1: ") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want tree 1 rejected with %q", name, err, tc.want)
		}
	}
}
