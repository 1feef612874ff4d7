// Package benchfile is the one schema every recorded BENCH_*.json uses, and
// the gate check that keeps those files honest. cmd/benchguard validates
// committed files and gates fresh `go test -bench` output against them;
// cmd/fxrzload writes its load and shard baselines in this shape.
//
// A file records one suite on one machine:
//
//	{"suite": "kernels", "date": "2026-08-05",
//	 "runner": {"cpu": "...", "cores": 1, "note": "..."},
//	 "config": {...},
//	 "metrics": [
//	   {"name": "BenchmarkKernelCAScan/odometer", "unit": "ns/elem", "value": 7.467},
//	   {"name": "BenchmarkKernelCAScan/fast", "unit": "ns/elem", "value": 2.522,
//	    "gates": [{"min": 0.9, "vs": "BenchmarkKernelCAScan/odometer", "max_drift": 0.1}]}]}
//
// A metric is identified by its name plus its unit. For benchmark suites the
// name is the `go test -bench` name without the -N GOMAXPROCS suffix and the
// unit is the one the benchmark reports, so a fresh run pairs with the file
// without any per-suite parser. "config" holds descriptive settings
// (workload, field, mix) that nothing interprets.
//
// A gate bounds q from below (min) or above (max). q is value(vs)/value(self)
// when vs names another metric of the same unit, and the metric's own value
// otherwise: a kernel's speedup is generic/fast, so the gate sits on the fast
// metric with vs set to the generic one. A gate is skipped when the core
// count is below min_cores. max_drift fails a fresh q that is worse than the
// recorded q by more than that fraction, in the direction the gate bounds:
// below recorded·(1−max_drift) for a min gate, above recorded/(1−max_drift)
// for a max gate. Drift is only checked against fresh measurements.
package benchfile

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"time"
)

// File is one recorded BENCH_*.json.
type File struct {
	Suite   string          `json:"suite"`
	Date    string          `json:"date"`
	Runner  Runner          `json:"runner"`
	Config  json.RawMessage `json:"config,omitempty"`
	Metrics []Metric        `json:"metrics"`
}

// Runner describes the machine that recorded the file. Cores is the core
// count min_cores gates are judged at when the file itself is validated.
type Runner struct {
	CPU   string `json:"cpu"`
	Cores int    `json:"cores"`
	Note  string `json:"note"`
}

// Metric is one recorded value and the gates on it.
type Metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	Gates []Gate  `json:"gates,omitempty"`
}

// Gate bounds a metric's q; exactly one of Min and Max is set.
type Gate struct {
	Min      *float64 `json:"min,omitempty"`
	Max      *float64 `json:"max,omitempty"`
	Vs       string   `json:"vs,omitempty"`
	MinCores int      `json:"min_cores,omitempty"`
	MaxDrift float64  `json:"max_drift,omitempty"`
}

// Key identifies a metric.
type Key struct{ Name, Unit string }

// AtLeast is a floor on q; AtMost a cap. vs may be empty.
func AtLeast(bound float64, vs string) Gate { return Gate{Min: &bound, Vs: vs} }
func AtMost(bound float64, vs string) Gate  { return Gate{Max: &bound, Vs: vs} }

// Add appends a metric.
func (f *File) Add(name, unit string, value float64, gates ...Gate) {
	f.Metrics = append(f.Metrics, Metric{Name: name, Unit: unit, Value: value, Gates: gates})
}

// Values returns the recorded value of every metric.
func (f *File) Values() map[Key]float64 {
	v := make(map[Key]float64, len(f.Metrics))
	for _, m := range f.Metrics {
		v[Key{m.Name, m.Unit}] = m.Value
	}
	return v
}

func (g Gate) String() string {
	var b strings.Builder
	if g.Min != nil {
		fmt.Fprintf(&b, "min %g", *g.Min)
	} else {
		fmt.Fprintf(&b, "max %g", *g.Max)
	}
	if g.Vs != "" {
		fmt.Fprintf(&b, " vs %s", g.Vs)
	}
	if g.MinCores > 0 {
		fmt.Fprintf(&b, " min_cores %d", g.MinCores)
	}
	if g.MaxDrift > 0 {
		fmt.Fprintf(&b, " max_drift %g", g.MaxDrift)
	}
	return b.String()
}

// Parse decodes one file and checks its structure. Unknown fields are
// rejected, so a misspelled gate key cannot silently drop a gate.
func Parse(raw []byte) (*File, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var f File
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("not a valid benchmark file: %w", err)
	}
	switch {
	case f.Suite == "":
		return nil, fmt.Errorf("missing required field %q", "suite")
	case f.Runner.Cores <= 0:
		return nil, fmt.Errorf("runner.cores must be > 0, got %d", f.Runner.Cores)
	case f.Runner.Note == "":
		return nil, fmt.Errorf("missing required field %q: say how and where the numbers were taken", "runner.note")
	case len(f.Metrics) == 0:
		return nil, fmt.Errorf("metrics is empty")
	}
	if _, err := time.Parse("2006-01-02", f.Date); err != nil {
		return nil, fmt.Errorf("date %q is not YYYY-MM-DD", f.Date)
	}
	values := make(map[Key]float64, len(f.Metrics))
	for i, m := range f.Metrics {
		k := Key{m.Name, m.Unit}
		if m.Name == "" || m.Unit == "" {
			return nil, fmt.Errorf("metrics[%d]: missing name or unit", i)
		}
		if _, dup := values[k]; dup {
			return nil, fmt.Errorf("metrics[%d]: duplicate metric %s [%s]", i, m.Name, m.Unit)
		}
		// Only a count may be zero: a time, rate or size of zero is a broken
		// recording, and a ratio gate must never divide by it.
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0 || m.Value == 0 && m.Unit != "count" {
			return nil, fmt.Errorf("%s [%s]: value %v must be finite and positive (a count may be 0)", m.Name, m.Unit, m.Value)
		}
		values[k] = m.Value
	}
	for _, m := range f.Metrics {
		for _, g := range m.Gates {
			if (g.Min == nil) == (g.Max == nil) {
				return nil, fmt.Errorf("%s [%s]: a gate sets exactly one of min and max", m.Name, m.Unit)
			}
			bound := g.Min
			if bound == nil {
				bound = g.Max
			}
			if math.IsNaN(*bound) || math.IsInf(*bound, 0) {
				return nil, fmt.Errorf("%s [%s]: gate bound %v is not finite", m.Name, m.Unit, *bound)
			}
			if _, ok := values[Key{g.Vs, m.Unit}]; g.Vs != "" && (!ok || g.Vs == m.Name) {
				return nil, fmt.Errorf("%s [%s]: gate vs %q names no other metric in %s", m.Name, m.Unit, g.Vs, m.Unit)
			}
			if g.MinCores < 0 || g.MaxDrift < 0 || g.MaxDrift >= 1 {
				return nil, fmt.Errorf("%s [%s]: gate %v: min_cores must be >= 0 and max_drift in [0, 1)", m.Name, m.Unit, g)
			}
		}
	}
	return &f, nil
}

// Outcome is one gate evaluated on one set of values. Err is nil when the
// gate holds or was skipped.
type Outcome struct {
	Metric  Key
	Gate    Gate
	Q       float64
	Skipped bool
	Err     error
}

// Check evaluates every gate of f on values (which must hold every metric of
// f) at the given core count. With drift set, gates carrying max_drift are
// also held to f's own recorded q.
func (f *File) Check(values map[Key]float64, cores int, drift bool) []Outcome {
	recorded := f.Values()
	var out []Outcome
	for _, m := range f.Metrics {
		k := Key{m.Name, m.Unit}
		for _, g := range m.Gates {
			o := Outcome{Metric: k, Gate: g, Skipped: cores < g.MinCores}
			if !o.Skipped {
				o.Q, o.Err = g.eval(values, recorded, k, drift)
			}
			out = append(out, o)
		}
	}
	return out
}

func (g Gate) eval(values, recorded map[Key]float64, k Key, drift bool) (float64, error) {
	q, err := gateQ(values, k, g)
	if err == nil {
		err = g.bounds(q)
	}
	if err == nil && drift && g.MaxDrift > 0 {
		var rq float64
		if rq, err = gateQ(recorded, k, g); err == nil {
			err = g.drifted(q, rq)
		}
	}
	if err != nil {
		return q, fmt.Errorf("%s [%s] gate %v: %w", k.Name, k.Unit, g, err)
	}
	return q, nil
}

func gateQ(values map[Key]float64, k Key, g Gate) (float64, error) {
	if g.Vs == "" {
		return values[k], nil
	}
	self := values[k]
	if !(self > 0) {
		return 0, fmt.Errorf("value %v cannot divide %s", self, g.Vs)
	}
	return values[Key{g.Vs, k.Unit}] / self, nil
}

func (g Gate) bounds(q float64) error {
	if g.Min != nil && !(q >= *g.Min) {
		return fmt.Errorf("q %.4g below the %g floor", q, *g.Min)
	}
	if g.Max != nil && !(q <= *g.Max) {
		return fmt.Errorf("q %.4g above the %g cap", q, *g.Max)
	}
	return nil
}

func (g Gate) drifted(q, recorded float64) error {
	keep := 1 - g.MaxDrift
	if g.Min != nil && q < recorded*keep {
		return fmt.Errorf("q %.4g regressed more than %g%% below the recorded %.4g", q, 100*g.MaxDrift, recorded)
	}
	if g.Max != nil && q > recorded/keep {
		return fmt.Errorf("q %.4g regressed more than %g%% above the recorded %.4g", q, 100*g.MaxDrift, recorded)
	}
	return nil
}

// Validate is the one check a recorded file must pass: it parses, still
// carries every pinned gate of its suite at no weaker a setting, and every
// gate holds on its own recorded values at runner.cores.
func Validate(raw []byte) (*File, error) {
	f, err := Parse(raw)
	if err != nil {
		return nil, err
	}
	var fails []string
	for _, p := range pinned {
		if p.suite == f.Suite && !f.holds(p) {
			fails = append(fails, fmt.Sprintf("pinned gate %s [%s] %v is missing or weakened", p.name, p.unit, p.gate()))
		}
	}
	for _, o := range f.Check(f.Values(), f.Runner.Cores, false) {
		if o.Err != nil {
			fails = append(fails, o.Err.Error())
		}
	}
	if len(fails) > 0 {
		return nil, errors.New(strings.Join(fails, "; "))
	}
	return f, nil
}
