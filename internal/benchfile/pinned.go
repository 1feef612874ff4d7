package benchfile

// pin is a merge-time gate: every file of suite must carry a gate on metric
// (name, unit) that is at least as strict — same vs and direction, a bound no
// looser, a min_cores no higher and, if the pin has one, a max_drift no
// wider. Editing a JSON file therefore cannot quietly loosen these, and a
// suite's roster is the set of metrics its pins name.
type pin struct {
	suite, name, unit string
	op                string // "min" or "max"
	bound             float64
	vs                string
	minCores          int
	maxDrift          float64
}

// fanOutOverhead is the floor on serial/parallel at any core count: a
// parallel run may be at most 1.5x slower than serial, because fan-out
// bookkeeping must stay cheap even with no cores to exploit.
const fanOutOverhead = 1 / 1.5

var pinned = []pin{
	// Kernel fast paths: the two headline kernels keep their merge floors; a
	// fast path slower than 0.9x the generic code it replaced is a bug.
	{"kernels", "BenchmarkKernelQuantize3D/fast", "ns/elem", "min", 1.5, "BenchmarkKernelQuantize3D/generic", 0, 0.1},
	{"kernels", "BenchmarkKernelEncodeInts/transposed", "ns/elem", "min", 0.9, "BenchmarkKernelEncodeInts/perplane", 0, 0.1},
	{"kernels", "BenchmarkKernelHuffmanDecode/table", "ns/elem", "min", 1.3, "BenchmarkKernelHuffmanDecode/bitwise", 0, 0.1},
	{"kernels", "BenchmarkKernelCAScan/fast", "ns/elem", "min", 0.9, "BenchmarkKernelCAScan/odometer", 0, 0.1},

	// Intra-field parallel codecs: bounded overhead at widths 2 and 4
	// anywhere; the 1.5x pack floor and drift only where wall-clock speedup
	// is measurable.
	{"compress", "BenchmarkCompressPack/sz/w2", "ns/elem", "min", fanOutOverhead, "BenchmarkCompressPack/sz/w1", 0, 0},
	{"compress", "BenchmarkCompressUnpack/sz/w2", "ns/elem", "min", fanOutOverhead, "BenchmarkCompressUnpack/sz/w1", 0, 0},
	{"compress", "BenchmarkCompressPack/zfp/w2", "ns/elem", "min", fanOutOverhead, "BenchmarkCompressPack/zfp/w1", 0, 0},
	{"compress", "BenchmarkCompressUnpack/zfp/w2", "ns/elem", "min", fanOutOverhead, "BenchmarkCompressUnpack/zfp/w1", 0, 0},
	{"compress", "BenchmarkCompressPack/sz/w4", "ns/elem", "min", fanOutOverhead, "BenchmarkCompressPack/sz/w1", 0, 0},
	{"compress", "BenchmarkCompressPack/sz/w4", "ns/elem", "min", 1.5, "BenchmarkCompressPack/sz/w1", 4, 0.1},
	{"compress", "BenchmarkCompressUnpack/sz/w4", "ns/elem", "min", fanOutOverhead, "BenchmarkCompressUnpack/sz/w1", 0, 0},
	{"compress", "BenchmarkCompressUnpack/sz/w4", "ns/elem", "min", fanOutOverhead, "BenchmarkCompressUnpack/sz/w1", 4, 0.1},
	{"compress", "BenchmarkCompressPack/zfp/w4", "ns/elem", "min", fanOutOverhead, "BenchmarkCompressPack/zfp/w1", 0, 0},
	{"compress", "BenchmarkCompressPack/zfp/w4", "ns/elem", "min", 1.5, "BenchmarkCompressPack/zfp/w1", 4, 0.1},
	{"compress", "BenchmarkCompressUnpack/zfp/w4", "ns/elem", "min", fanOutOverhead, "BenchmarkCompressUnpack/zfp/w1", 0, 0},
	{"compress", "BenchmarkCompressUnpack/zfp/w4", "ns/elem", "min", fanOutOverhead, "BenchmarkCompressUnpack/zfp/w1", 4, 0.1},

	// Serving: http/direct overhead caps, the batch-16 estimate amortization
	// floor, and per-item cost that may rise at most 25% per batch step.
	{"serve", "BenchmarkServeEstimate/direct", "ns/op", "max", 8, "BenchmarkServeEstimate/http", 0, 0.1},
	{"serve", "BenchmarkServePack/direct", "ns/op", "max", 2, "BenchmarkServePack/http", 0, 0.1},
	{"serve", "BenchmarkServeUnpack/direct", "ns/op", "max", 4, "BenchmarkServeUnpack/http", 0, 0.1},
	{"serve", "BenchmarkServeBatchEstimate/b16", "ns/item", "min", 3, "BenchmarkServeBatchEstimate/b1", 0, 0},
	{"serve", "BenchmarkServeBatchEstimate/b1", "ns/item", "max", 1.25, "BenchmarkServeBatchEstimate/b4", 0, 0},
	{"serve", "BenchmarkServeBatchEstimate/b4", "ns/item", "max", 1.25, "BenchmarkServeBatchEstimate/b16", 0, 0},
	{"serve", "BenchmarkServeBatchEstimate/b16", "ns/item", "max", 1.25, "BenchmarkServeBatchEstimate/b64", 0, 0},
	{"serve", "BenchmarkServeBatchPack/b1", "ns/item", "max", 1.25, "BenchmarkServeBatchPack/b4", 0, 0},
	{"serve", "BenchmarkServeBatchPack/b4", "ns/item", "max", 1.25, "BenchmarkServeBatchPack/b16", 0, 0},
	{"serve", "BenchmarkServeBatchPack/b16", "ns/item", "max", 1.25, "BenchmarkServeBatchPack/b64", 0, 0},
	{"serve", "BenchmarkServeBatchUnpack/b1", "ns/item", "max", 1.25, "BenchmarkServeBatchUnpack/b4", 0, 0},
	{"serve", "BenchmarkServeBatchUnpack/b4", "ns/item", "max", 1.25, "BenchmarkServeBatchUnpack/b16", 0, 0},
	{"serve", "BenchmarkServeBatchUnpack/b16", "ns/item", "max", 1.25, "BenchmarkServeBatchUnpack/b64", 0, 0},

	// Region decode: eighth-volume speedups and region-index size budgets.
	{"roi", "BenchmarkRegionDecode/zfp/eighth", "ns/op", "min", 4, "BenchmarkRegionDecode/zfp/full", 0, 0},
	{"roi", "BenchmarkRegionDecode/zfp/eighth", "idx-frac", "max", 0.01, "", 0, 0},
	{"roi", "BenchmarkRegionDecode/sz/eighth", "ns/op", "min", 2.5, "BenchmarkRegionDecode/sz/full", 0, 0},
	{"roi", "BenchmarkRegionDecode/sz/eighth", "idx-frac", "max", 0.01, "", 0, 0},

	// Chunked entropy decode: width-1 and width-2 overhead anywhere, the 2x
	// width-4 floor on multi-core machines, and a <= 1% chunk table.
	{"entropy", "BenchmarkChunkedDecode/huffman/w1", "ns/elem", "min", fanOutOverhead, "BenchmarkChunkedDecode/huffman/serial", 0, 0},
	{"entropy", "BenchmarkChunkedDecode/huffman/w2", "ns/elem", "min", fanOutOverhead, "BenchmarkChunkedDecode/huffman/serial", 0, 0},
	{"entropy", "BenchmarkChunkedDecode/huffman/w4", "ns/elem", "min", 2, "BenchmarkChunkedDecode/huffman/serial", 4, 0.1},
	{"entropy", "BenchmarkChunkedDecode/huffman/w1", "blob-overhead-frac", "max", 0.01, "", 0, 0},

	// fxrzload baselines: a clean run has no errors and every class of the
	// mix succeeded at least once, or its percentiles are fiction.
	{"load", "errors", "count", "max", 0, "", 0, 0},
	{"load", "estimate/ok", "count", "min", 1, "", 0, 0},
	{"load", "unpack/ok", "count", "min", 1, "", 0, 0},
	{"load", "pack/ok", "count", "min", 1, "", 0, 0},
	{"shard", "single/errors", "count", "max", 0, "", 0, 0},
	{"shard", "sharded/errors", "count", "max", 0, "", 0, 0},
	{"shard", "single/ok", "count", "min", 1, "", 0, 0},
	{"shard", "sharded/ok", "count", "min", 1, "", 0, 0},
}

// gate is the pin written as the gate it asks for.
func (p pin) gate() Gate {
	g := AtMost(p.bound, p.vs)
	if p.op == "min" {
		g = AtLeast(p.bound, p.vs)
	}
	g.MinCores, g.MaxDrift = p.minCores, p.maxDrift
	return g
}

// heldBy reports whether g is at least as strict as p.
func (p pin) heldBy(g Gate) bool {
	if g.Vs != p.vs || g.MinCores > p.minCores || p.maxDrift > 0 && (g.MaxDrift == 0 || g.MaxDrift > p.maxDrift) {
		return false
	}
	if p.op == "min" {
		return g.Min != nil && *g.Min >= p.bound
	}
	return g.Max != nil && *g.Max <= p.bound
}

// holds reports whether f carries a gate at least as strict as p.
func (f *File) holds(p pin) bool {
	for _, m := range f.Metrics {
		if m.Name != p.name || m.Unit != p.unit {
			continue
		}
		for _, g := range m.Gates {
			if p.heldBy(g) {
				return true
			}
		}
	}
	return false
}
