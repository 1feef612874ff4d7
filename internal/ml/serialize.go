package ml

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
)

// Serialisation uses exported mirror types so gob can reach tree internals
// without exporting them in the working API.

type treeDTO struct {
	Dim   int
	Nodes []nodeDTO
}

type nodeDTO struct {
	Feature     int
	Threshold   float64
	Value       float64
	Left, Right int
}

type forestDTO struct {
	Cfg   ForestConfig
	Trees []treeDTO
}

func (t *Tree) toDTO() treeDTO {
	d := treeDTO{Dim: t.dim, Nodes: make([]nodeDTO, len(t.nodes))}
	for i, n := range t.nodes {
		d.Nodes[i] = nodeDTO{Feature: n.feature, Threshold: n.threshold, Value: n.value, Left: n.left, Right: n.right}
	}
	return d
}

// treeFromDTO rebuilds a tree from a model file, which is untrusted input:
// Predict follows child indices until it reaches a leaf, so every split must
// point strictly forward and in range (which also makes the tree acyclic),
// test a feature below dim, and compare against a finite threshold.
func treeFromDTO(d treeDTO) (*Tree, error) {
	t := &Tree{dim: d.Dim, nodes: make([]treeNode, len(d.Nodes))}
	for i, n := range d.Nodes {
		if n.Feature >= 0 {
			switch {
			case n.Feature >= d.Dim:
				return nil, fmt.Errorf("ml: node %d splits on feature %d of %d", i, n.Feature, d.Dim)
			case math.IsNaN(n.Threshold) || math.IsInf(n.Threshold, 0):
				return nil, fmt.Errorf("ml: node %d has non-finite threshold %v", i, n.Threshold)
			case n.Left <= i || n.Left >= len(d.Nodes) || n.Right <= i || n.Right >= len(d.Nodes):
				return nil, fmt.Errorf("ml: node %d of %d has children %d/%d (want forward, in range)", i, len(d.Nodes), n.Left, n.Right)
			}
		}
		t.nodes[i] = treeNode{feature: n.Feature, threshold: n.Threshold, value: n.Value, left: n.Left, right: n.Right}
	}
	return t, nil
}

// MarshalBinary implements encoding.BinaryMarshaler for a trained forest.
func (f *Forest) MarshalBinary() ([]byte, error) {
	dto := forestDTO{Cfg: f.cfg, Trees: make([]treeDTO, len(f.trees))}
	for i, t := range f.trees {
		if t == nil {
			return nil, fmt.Errorf("ml: forest has nil tree %d (not trained?)", i)
		}
		dto.Trees[i] = t.toDTO()
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(dto); err != nil {
		return nil, fmt.Errorf("ml: encode forest: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (f *Forest) UnmarshalBinary(data []byte) error {
	var dto forestDTO
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&dto); err != nil {
		return fmt.Errorf("ml: decode forest: %w", err)
	}
	f.cfg = dto.Cfg
	f.trees = make([]*Tree, len(dto.Trees))
	for i, td := range dto.Trees {
		t, err := treeFromDTO(td)
		if err != nil {
			return fmt.Errorf("tree %d: %w", i, err)
		}
		f.trees[i] = t
	}
	return nil
}
