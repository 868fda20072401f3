package main

import (
	"repro/internal/disasm"
	"repro/internal/etypes"
	"repro/internal/evm"
	"repro/internal/proxion"
	"repro/internal/static"
)

// spansPerName bounds the spans of one name a traced run keeps in memory;
// past it only the per-name totals grow.
const spansPerName = 50_000

// traceWiring is the traced stack of one run: the tracer and the wrapped
// reader and source provider every traced detector reads through.
type traceWiring struct {
	tr      *tracer
	scope   *scope
	reader  *tracedReader
	sources proxion.SourceProvider
}

func newTraceWiring(c *corpus) *traceWiring {
	tw := &traceWiring{tr: newTracer(spansPerName), scope: new(scope)}
	tw.reader = &tracedReader{Reader: c.reader, tr: tw.tr, parent: tw.scope}
	tw.sources = &tracedSources{inner: c.sources, tr: tw.tr, parent: tw.scope}
	return tw
}

// totals returns the running feed-wait ms, sink ms, chain read count and
// chain read ms.
func (tw *traceWiring) totals() (feedWaitMS, sinkMS, reads, readMS float64) {
	_, feedWaitMS = tw.tr.total("pipeline.feed_wait")
	_, sinkMS = tw.tr.total("pipeline.sink")
	n, readMS := tw.tr.total("chain.read")
	return feedWaitMS, sinkMS, float64(n), readMS
}

// replay times fn once per item as a span named name and returns the
// total ms and the mean heap allocations per call (MemStats delta over
// the replay, which runs on one goroutine with the rest of the benchmark
// idle).
func replay[T any](tw *traceWiring, name string, items []T, fn func(T)) (totalMS, allocsPerCall float64) {
	m0 := mallocs()
	_, ms0 := tw.tr.total(name)
	for _, it := range items {
		id, start := tw.tr.begin()
		fn(it)
		tw.tr.end(name, id, 0, 0, start)
	}
	_, ms1 := tw.tr.total(name)
	allocs := float64(mallocs()-m0) / float64(max(len(items), 1))
	return ms1 - ms0, allocs
}

// probeTarget is one contract whose code reaches the emulation probe.
type probeTarget struct {
	addr etypes.Address
	code []byte
}

// replayLayers times each analysis layer in isolation over the corpus,
// outside the pipeline, through the program's public functions:
//   - disasm.ContainsOp over every contract with code (the filter);
//   - proxion.CraftCallData over every contract that passes the filter;
//   - Detector.Check and static.Analyze once per unique probed bytecode;
//   - Detector.AnalyzePair over every reference proxy/logic pair.
//
// Each replay uses a fresh Detector, so per-code memos start cold.
func replayLayers(res *result, tw *traceWiring, c *corpus, ref *reference) error {
	all, hashes, err := readCode(c)
	if err != nil {
		return err
	}
	var codes [][]byte
	var probed, unique []probeTarget
	seen := make(map[etypes.Hash]bool)
	for i, code := range all {
		if len(code) == 0 {
			continue
		}
		codes = append(codes, code)
		if !disasm.ContainsOp(code, evm.DELEGATECALL) {
			continue
		}
		probed = append(probed, probeTarget{c.addrs[i], code})
		if !seen[hashes[i]] {
			seen[hashes[i]] = true
			unique = append(unique, probeTarget{c.addrs[i], code})
		}
	}

	rejected := 0
	filterMS, _ := replay(tw, "disasm.filter", codes, func(code []byte) {
		if !disasm.ContainsOp(code, evm.DELEGATECALL) {
			rejected++
		}
	})
	res.set("disasm.filter_calls", float64(len(codes)), "count")
	res.set("disasm.filter_ms", filterMS, "ms")
	res.set("disasm.reject_share", float64(rejected)/float64(max(len(codes), 1)), "share")

	craftMS, _ := replay(tw, "proxion.craft", probed, func(p probeTarget) { proxion.CraftCallData(p.addr, p.code) })
	res.set("proxion.craft_ms", craftMS, "ms")

	det := proxion.NewDetector(c.reader)
	probeMS, probeAllocs := replay(tw, "proxion.probe", unique, func(p probeTarget) { det.Check(p.addr) })
	res.set("proxion.probe_ms", probeMS, "ms")
	res.set("proxion.probe_allocs", probeAllocs, "count")

	summaryMS, summaryAllocs := replay(tw, "static.summary", unique, func(p probeTarget) { static.Analyze(p.code) })
	res.set("static.summary_ms", summaryMS, "ms")
	res.set("static.summary_allocs", summaryAllocs, "count")

	det = proxion.NewDetector(c.reader)
	nFunc, nStorage := 0, 0
	pairMS, pairAllocs := replay(tw, "proxion.pair", ref.pairs, func(p [2]etypes.Address) {
		pa := det.AnalyzePair(p[0], p[1], c.sources)
		nFunc += len(pa.Functions)
		nStorage += len(pa.Storage)
	})
	res.set("proxion.pair_ms", pairMS, "ms")
	res.set("proxion.pair_allocs", pairAllocs, "count")
	res.set("proxion.function_collisions", float64(nFunc), "count")
	res.set("proxion.storage_collisions", float64(nStorage), "count")
	res.note("replay_counts", map[string]int{"filter": len(codes), "craft": len(probed), "probe": len(unique), "pair": len(ref.pairs)})
	return nil
}

// zeroServeLayers reports the store and serve layers as idle: a scan
// never reaches them.
func zeroServeLayers(res *result) {
	for _, m := range []struct{ name, unit string }{
		{"store.appended", "count"}, {"store.skipped_share", "share"},
		{"store.put_p50_us", "us"}, {"store.put_p99_us", "us"},
		{"store.load_ms", "ms"}, {"store.fsync_share", "share"},
		{"serve.result_cache_hit_share", "share"}, {"serve.coalesced", "count"},
		{"serve.analyses", "count"}, {"serve.lookup_ms", "ms"},
		{"serve.http_ms", "ms"}, {"serve.encode_ms", "ms"},
	} {
		res.set(m.name, 0, m.unit)
	}
}
