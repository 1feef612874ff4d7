package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// configJSON is the benchmark's fixed settings besides what BENCHMARK.json
// holds: the serve Config, latency limits, rates, the ladder and the
// per-layer → end-to-end map. Changing it changes the benchmark.
//
//go:embed config.json
var configJSON []byte

// metricSpec is one metric as BENCHMARK.json lists it.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type trainSpec struct {
	StationaryPoints int `json:"stationary_points"`
	AugmentPerField  int `json:"augment_per_field"`
	Trees            int `json:"trees"`
}

type archiveSpec struct {
	Codecs          []string   `json:"codecs"`
	TargetsPerField int        `json:"targets_per_field"`
	TargetBand      [2]float64 `json:"target_band"`
}

// serveConfigSpec mirrors the serve.Config fields the benchmark fixes.
type serveConfigSpec struct {
	CacheSize      int
	MaxInFlight    int
	MaxBodyBytes   int64
	TimeoutSeconds int
	Parallelism    int
	RatePerClient  float64
	MaxBatch       int
}

type serveSpec struct {
	Config             serveConfigSpec `json:"config"`
	Model              string          `json:"model"`
	Connections        int             `json:"connections"`
	Phase1Share        float64         `json:"phase1_share"`
	NominalRPS         float64         `json:"nominal_rps"`
	LadderRPS          []float64       `json:"ladder_rps"`
	LadderRungRequests int             `json:"ladder_rung_requests"`
	// LadderBacklogGrowthMS is how much the median wait may grow from a
	// rung's first quarter to its last before the backlog counts as growing.
	LadderBacklogGrowthMS float64            `json:"ladder_backlog_growth_ms"`
	LimitsMS              map[string]float64 `json:"limits_ms"`
	Mix                   map[string]float64 `json:"mix"`
	BatchItems            int                `json:"batch_items"`
	RegionUnpackShare     float64            `json:"region_unpack_share"`
	Payloads              int                `json:"payloads"`
	TargetsPerPayload     int                `json:"targets_per_payload"`
}

type regionSpec struct {
	Codecs         []string   `json:"codecs"`
	Size           int        `json:"size"`
	RelBoundRange  [2]float64 `json:"rel_bound_range"`
	RegionShare    float64    `json:"region_share"`
	PointsPerBatch int        `json:"points_per_batch"`
	SessionBatches int        `json:"session_batches"`
	BoxFracLog2    [2]int     `json:"box_fraction_log2"`
}

type config struct {
	SetupReps int         `json:"setup_reps"`
	Workers   int         `json:"workers"`
	Train     trainSpec   `json:"train"`
	Archive   archiveSpec `json:"archive"`
	Serve     serveSpec   `json:"serve"`
	Region    regionSpec  `json:"region"`
	// Moves names, for each per-layer metric, the end-to-end figures (as
	// workload:metric) it should move.
	Moves map[string][]string `json:"moves"`

	// The metric lists, read from BENCHMARK.json.
	EndToEnd []metricSpec `json:"-"`
	PerLayer []metricSpec `json:"-"`
}

// loadConfig reads the embedded config.json and the metric lists of the
// BENCHMARK.json at benchmarkPath, and checks that the moves map names
// exactly the per-layer metrics.
func loadConfig(benchmarkPath string) (config, error) {
	var c config
	if err := json.Unmarshal(configJSON, &c); err != nil {
		return c, fmt.Errorf("parsing config.json: %w", err)
	}
	raw, err := os.ReadFile(benchmarkPath)
	if err != nil {
		return c, err
	}
	var bj struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		return c, fmt.Errorf("parsing %s: %w", benchmarkPath, err)
	}
	c.EndToEnd, c.PerLayer = bj.EndToEnd, bj.PerLayer
	var unmapped []string
	listed := map[string]bool{}
	for _, m := range c.PerLayer {
		listed[m.Name] = true
		if _, ok := c.Moves[m.Name]; !ok {
			unmapped = append(unmapped, m.Name)
		}
	}
	for name := range c.Moves {
		if !listed[name] {
			unmapped = append(unmapped, name)
		}
	}
	if len(unmapped) > 0 {
		sort.Strings(unmapped)
		return c, fmt.Errorf("config.json moves and %s per_layer differ on %v", benchmarkPath, unmapped)
	}
	return c, nil
}
