package benchfile

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func loadCommitted(t *testing.T, suite string) []byte {
	t.Helper()
	raw, err := os.ReadFile("../../BENCH_" + suite + ".json")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Validate(raw); err != nil {
		t.Fatalf("committed BENCH_%s.json rejected: %v", suite, err)
	}
	return raw
}

// TestPinnedGatesCannotBeWeakened edits every gate of a committed file that
// holds a pin — deleting it, loosening its bound, raising its min_cores,
// dropping or widening its drift bound — and expects the pin to fail each
// time, so no JSON edit loosens a merge-time gate.
func TestPinnedGatesCannotBeWeakened(t *testing.T) {
	weakenings := map[string]func(g *Gate) bool{
		"delete": func(g *Gate) bool { *g = Gate{}; return true },
		"loosen": func(g *Gate) bool {
			if g.Min != nil {
				v := *g.Min*0.99 - 1e-9
				g.Min = &v
			} else {
				v := *g.Max*1.01 + 1e-9
				g.Max = &v
			}
			return true
		},
		"cores": func(g *Gate) bool { g.MinCores++; return true },
		"drift": func(g *Gate) bool { held := g.MaxDrift > 0; g.MaxDrift *= 2; return held },
	}
	for _, p := range pinned {
		raw := loadCommitted(t, p.suite)
		for wname, weaken := range weakenings {
			var f File
			if err := json.Unmarshal(raw, &f); err != nil {
				t.Fatal(err)
			}
			touched := false
			for i := range f.Metrics {
				m := &f.Metrics[i]
				if m.Name != p.name || m.Unit != p.unit {
					continue
				}
				kept := m.Gates[:0]
				for _, g := range m.Gates {
					if p.heldBy(g) && (wname != "drift" || p.maxDrift > 0) && weaken(&g) {
						touched = true
					}
					if g.Min != nil || g.Max != nil {
						kept = append(kept, g)
					}
				}
				m.Gates = kept
			}
			if !touched {
				continue
			}
			if f.holds(p) {
				t.Errorf("%s %s [%s] %v: weakened file still holds the pin", wname, p.name, p.unit, p.gate())
			}
			out, err := json.Marshal(f)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Validate(out); err == nil || !strings.Contains(err.Error(), "pinned gate "+p.name) {
				t.Errorf("%s %s [%s] %v: err = %v, want a pinned-gate failure", wname, p.name, p.unit, p.gate(), err)
			}
		}
	}
}

// TestStricterGatesHoldPins: tightening a pinned gate is always allowed.
func TestStricterGatesHoldPins(t *testing.T) {
	for _, p := range pinned {
		g := p.gate()
		if g.Min != nil {
			v := *g.Min + 1
			g.Min = &v
		} else {
			v := *g.Max - 1
			g.Max = &v
		}
		g.MaxDrift /= 2
		if g.MaxDrift == 0 {
			g.MaxDrift = 0.05
		}
		if g.MinCores > 0 {
			g.MinCores--
		}
		if !p.heldBy(p.gate()) || !p.heldBy(g) {
			t.Errorf("%s [%s]: pin not held by %v or its stricter %v", p.name, p.unit, p.gate(), g)
		}
	}
}
