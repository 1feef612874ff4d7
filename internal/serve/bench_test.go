package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	fxrz "github.com/fxrz-go/fxrz"
	"github.com/fxrz-go/fxrz/internal/batch"
	"github.com/fxrz-go/fxrz/internal/datagen"
	"github.com/fxrz-go/fxrz/internal/fieldio"
	"github.com/fxrz-go/fxrz/internal/serve"
)

// The BenchmarkServe* pairs measure what the HTTP layer costs on top of the
// library: the `direct` variant calls the framework in-process, the `http`
// variant sends the same work through a real server round trip (routing,
// admission, container parse, response write). BENCH_serve.json records both
// legs per endpoint and benchguard caps their http/direct ratio — the
// serving layer must stay a wrapper, not a tax. Ratios are within-run, so
// the gate is meaningful on any machine. Re-record with `make bench-serve`.

// benchEnv is the shared benchmark fixture: one server, one field, one
// pre-compressed stream, all reusing the TestMain-trained model.
type benchEnv struct {
	ts      *httptest.Server
	field   *fxrz.Field
	body    []byte // field as an fxrzfield container
	blob    []byte // field compressed at target
	target  float64
	fwBound *fxrz.Framework // parallelism-bound framework, as the server uses it
}

func newBenchEnv(b *testing.B) *benchEnv {
	b.Helper()
	f, err := datagenField()
	if err != nil {
		b.Fatal(err)
	}
	lo, hi := trainedFW.ValidRatioRange(f)
	target := lo + 0.5*(hi-lo)
	var buf bytes.Buffer
	if err := fieldio.Write(&buf, f); err != nil {
		b.Fatal(err)
	}
	blob, _, err := trainedFW.CompressToRatio(f, target)
	if err != nil {
		b.Fatal(err)
	}
	s := serve.NewServer(serve.Config{ModelsDir: modelsDir, Parallelism: 1})
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(ts.Close)
	// Warm the model cache so benchmarks measure serving, not the cold load.
	resp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	return &benchEnv{
		ts: ts, field: f, body: buf.Bytes(), blob: blob, target: target,
		fwBound: trainedFW.WithParallelism(1),
	}
}

func datagenField() (*fxrz.Field, error) {
	return datagen.NyxField("baryon_density", 2, 2, 24)
}

func (e *benchEnv) post(b *testing.B, path string, body []byte) []byte {
	b.Helper()
	resp, err := http.Post(e.ts.URL+path, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	out, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if rerr != nil {
		b.Fatal(rerr)
	}
	if resp.StatusCode != 200 {
		b.Fatalf("%s: status %d: %s", path, resp.StatusCode, out)
	}
	return out
}

func BenchmarkServeEstimate(b *testing.B) {
	e := newBenchEnv(b)
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := e.fwBound.EstimateConfig(e.field, e.target); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("http", func(b *testing.B) {
		path := fmt.Sprintf("/v1/estimate?model=nyx-sz&target=%g", e.target)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.post(b, path, e.body)
		}
	})
}

func BenchmarkServePack(b *testing.B) {
	e := newBenchEnv(b)
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := e.fwBound.CompressToRatio(e.field, e.target); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("http", func(b *testing.B) {
		path := fmt.Sprintf("/v1/pack?model=nyx-sz&target=%g", e.target)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.post(b, path, e.body)
		}
	})
}

// The BenchmarkServeBatch* family measures the amortization curve the
// /v1/*-many endpoints exist for: the same item at batch sizes 1/4/16/64,
// reported as per-item ns/item next to the whole-batch ns/op. BENCH_serve.json
// gates the ns/item curve: per-item estimate at batch 16 must be at least 3x
// cheaper than batch 1, and per-item cost may rise at most 1.25x from one
// batch size to the next (slack for loopback transport noise on the big-body
// curves). Re-record with `make bench-serve`.

// batchPayload wraps n copies of body into one request container.
func batchPayload(n int, body []byte) []byte {
	items := make([]batch.Item, n)
	for i := range items {
		items[i] = batch.Item{ID: uint64(i), Payload: body}
	}
	return batch.EncodeRequest(items)
}

// checkBatch validates one response container outside the timed loop: all n
// items must come back 200 or the curve measures error paths.
func (e *benchEnv) checkBatch(b *testing.B, path string, payload []byte, n int) {
	b.Helper()
	results, err := batch.DecodeResponse(e.post(b, path, payload))
	if err != nil {
		b.Fatal(err)
	}
	if len(results) != n {
		b.Fatalf("%d results for %d items", len(results), n)
	}
	for _, r := range results {
		if r.Status != 200 {
			b.Fatalf("item %d status %d: %s", r.ID, r.Status, r.Payload)
		}
	}
}

func benchBatchSizes(b *testing.B, e *benchEnv, path string, body []byte) {
	b.Helper()
	for _, n := range []int{1, 4, 16, 64} {
		payload := batchPayload(n, body)
		b.Run(fmt.Sprintf("b%d", n), func(b *testing.B) {
			e.checkBatch(b, path, payload, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.post(b, path, payload)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/item")
		})
	}
}

// BenchmarkServeBatchEstimate batches the features-mode estimate — the knob
// query whose own work is microseconds, so the curve isolates the fixed
// per-request cost (round trip, routing, admission, container handling) that
// batching exists to amortize. Field-payload estimates spend ~200us per item
// on feature extraction, which caps the visible amortization regardless of
// how cheap the per-request overhead gets.
func BenchmarkServeBatchEstimate(b *testing.B) {
	e := newBenchEnv(b)
	ft := fxrz.ExtractFeatures(e.field, 4)
	est, err := e.fwBound.EstimateConfig(e.field, e.target)
	if err != nil {
		b.Fatal(err)
	}
	featJSON, err := json.Marshal(serve.FeaturesRequest{
		ValueRange: ft.ValueRange, MeanValue: ft.MeanValue,
		MND: ft.MND, MLD: ft.MLD, MSD: ft.MSD, CARatio: est.NonConstantR,
	})
	if err != nil {
		b.Fatal(err)
	}
	benchBatchSizes(b, e, fmt.Sprintf("/v1/estimate-many?model=nyx-sz&target=%g", e.target), featJSON)
}

func BenchmarkServeBatchPack(b *testing.B) {
	e := newBenchEnv(b)
	benchBatchSizes(b, e, fmt.Sprintf("/v1/pack-many?model=nyx-sz&target=%g", e.target), e.body)
}

func BenchmarkServeBatchUnpack(b *testing.B) {
	e := newBenchEnv(b)
	benchBatchSizes(b, e, "/v1/unpack-many", e.blob)
}

func BenchmarkServeUnpack(b *testing.B) {
	e := newBenchEnv(b)
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := fxrz.Decompress(e.blob); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("http", func(b *testing.B) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.post(b, "/v1/unpack", e.blob)
		}
	})
}
