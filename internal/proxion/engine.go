package proxion

import (
	"runtime"

	"repro/internal/chain"
	"repro/internal/disasm"
	"repro/internal/etypes"
	"repro/internal/evm"
	"repro/internal/pipeline"
)

// resilienceSource is the structural shape of a chain.Reader that tracks
// its own retry/breaker activity (the faultchain resilient client). The
// engine discovers it by type assertion so this package stays free of a
// faultchain dependency.
type resilienceSource interface {
	ResilienceCounters() (retries, breakerTrips int64)
}

// AnalyzeOptions tunes the streaming analysis engine. The zero value
// selects production defaults: every stage sized from GOMAXPROCS, the
// bytecode-dedup cache on, no history stage, a 4096-contract reorder
// window, unbounded verdict cache.
type AnalyzeOptions struct {
	// FilterWorkers, ProbeWorkers, ClassifyWorkers, HistoryWorkers and
	// PairWorkers size each stage's pool; zero picks a default derived
	// from GOMAXPROCS (the probe stage, where emulation time concentrates,
	// gets the most).
	FilterWorkers   int
	ProbeWorkers    int
	ClassifyWorkers int
	HistoryWorkers  int
	PairWorkers     int
	// ChannelDepth bounds the inter-stage channels (default 4×GOMAXPROCS,
	// minimum 16).
	ChannelDepth int
	// Window bounds the number of contracts in flight at once: fed but not
	// yet emitted to the sink. Together with ChannelDepth and the worker
	// counts it is the engine's whole memory bound — peak usage of a
	// streaming run does not grow with corpus size. Default 4096.
	Window int
	// CacheCapacity bounds the bytecode-dedup verdict cache to at most this
	// many distinct code hashes, evicted least-recently-used. Zero keeps
	// the cache unbounded (every unique bytecode is remembered for the
	// whole run — fine for batch runs, not for million-contract streams).
	CacheCapacity int
	// DisableDedup turns off the bytecode-dedup verdict cache, probing
	// every address with a fresh emulation — the ablation mode.
	DisableDedup bool
	// WithHistory enables the logic-history stage: each storage proxy's
	// full implementation history is recovered with Algorithm 1 and every
	// historical pair is collision-analyzed into Result.Histories (or the
	// Item.History field in streaming runs).
	WithHistory bool
	// Stats, when non-nil, is the externally-owned counter set the run
	// updates instead of a private one. All Stats fields are atomic, so a
	// caller may read them live while the run is in flight — how a
	// long-running query service exposes per-shard progress without
	// waiting for the end-of-run snapshot. The final Snapshot is taken
	// from the same counters.
	Stats *pipeline.Stats
}

// The streaming engine's work-item types; idx is the contract's position
// in the source stream, which anchors result ordering.
type (
	feedItem struct {
		idx  int
		addr etypes.Address
	}
	probeItem struct {
		idx  int
		addr etypes.Address
		code []byte
	}
	classifyItem struct {
		idx  int
		code []byte
		rep  Report
	}
	pairItem struct {
		idx          int
		proxy, logic etypes.Address
	}
	historyItem struct {
		idx int
		rep Report
	}
)

// AnalyzeAll runs the full streaming pipeline over every alive contract:
// disassembly filter → emulation probe (bytecode-deduplicated) →
// classification → pair collision analysis, all stages concurrent with no
// barrier in between — a detected proxy enters pair analysis while later
// contracts are still being probed. Results keep the chain's deterministic
// contract order.
func (d *Detector) AnalyzeAll(sources SourceProvider) *Result {
	return d.AnalyzeAllWithOptions(sources, AnalyzeOptions{})
}

// AnalyzeAllWithOptions is AnalyzeAll with explicit engine tuning. If even
// the contract enumeration fails terminally (node down before the run
// started), the result is an empty — not partial, not panicking — run.
func (d *Detector) AnalyzeAllWithOptions(sources SourceProvider, opts AnalyzeOptions) *Result {
	var addrs []etypes.Address
	chain.CaptureReadError(func() { addrs = d.chain.Contracts() })
	return d.analyze(SliceSource(addrs), sources, opts)
}

// AnalyzeSince runs the same streaming pipeline restricted to contracts
// deployed after the given block height — the incremental mode a
// production deployment uses to keep pace with the chain instead of
// re-scanning all 36M contracts. AnalyzeSince(0, …) is equivalent to
// AnalyzeAll. A contract whose deployment block cannot be read is included
// conservatively rather than silently dropped.
func (d *Detector) AnalyzeSince(height uint64, sources SourceProvider) *Result {
	var all []etypes.Address
	chain.CaptureReadError(func() { all = d.chain.Contracts() })
	// Filter lazily inside the source so the CreatedAt reads overlap the
	// pipeline instead of forming a serial pre-pass.
	i := 0
	src := SourceFunc(func() (etypes.Address, bool) {
		for i < len(all) {
			addr := all[i]
			i++
			created := uint64(0)
			unknown := chain.CaptureReadError(func() { created = d.chain.CreatedAt(addr) }) != nil
			if unknown || created > height {
				return addr, true
			}
		}
		return etypes.Address{}, false
	})
	return d.analyze(src, sources, AnalyzeOptions{})
}

// analyze is the collecting wrapper over AnalyzeStream that the
// slice-returning entry points share: it runs the stream into a
// CollectSink and packages the accumulated reports with the run snapshot.
func (d *Detector) analyze(src AddressSource, sources SourceProvider, opts AnalyzeOptions) *Result {
	sink := NewCollectSink()
	snap := d.AnalyzeStream(src, sources, sink, opts)
	res := sink.Result()
	res.Stats = snap
	return res
}

// AnalyzeStream is the one whole-chain analysis code path: every entry
// point (full scans, incremental scans, experiments, the CLI) funnels
// here. It pulls addresses from src, runs them through the staged
// pipeline, and emits one finalized Item per contract to sink, in source
// order. Memory is bounded end to end: the feeder blocks when
// opts.Window contracts are in flight, every inter-stage channel is
// bounded by opts.ChannelDepth, and nothing per-contract survives past
// its emission — so a run over a million contracts peaks at the same
// working set as a run over ten thousand.
func (d *Detector) AnalyzeStream(src AddressSource, sources SourceProvider, sink ReportSink, opts AnalyzeOptions) *pipeline.Snapshot {
	procs := runtime.GOMAXPROCS(0)
	size := func(configured, def int) int {
		if configured > 0 {
			return configured
		}
		if def < 1 {
			return 1
		}
		return def
	}
	depth := opts.ChannelDepth
	if depth <= 0 {
		depth = 4 * procs
		if depth < 16 {
			depth = 16
		}
	}
	window := opts.Window
	if window <= 0 {
		window = 4096
	}
	if !opts.DisableDedup {
		d.verdicts.setCapacity(opts.CacheCapacity)
	}

	eng := pipeline.New()
	stats := opts.Stats
	if stats == nil {
		stats = new(pipeline.Stats)
	}
	tracker := newStreamTracker(window, sink, stats)
	apiBefore := d.chain.APICalls()
	var retriesBefore, tripsBefore int64
	resil, hasResil := d.chain.(resilienceSource)
	if hasResil {
		retriesBefore, tripsBefore = resil.ResilienceCounters()
	}

	// The probe stage gets the full CPU budget — emulation dominates the
	// per-contract cost — while the cheap bookends share smaller pools.
	stFilter := eng.NewStage("disasm-filter", size(opts.FilterWorkers, procs/4))
	stProbe := eng.NewStage("emulation-probe", size(opts.ProbeWorkers, procs))
	stClassify := eng.NewStage("classification", size(opts.ClassifyWorkers, procs/4))
	var stHistory *pipeline.Stage
	if opts.WithHistory {
		stHistory = eng.NewStage("logic-history", size(opts.HistoryWorkers, procs/2))
	}
	stPair := eng.NewStage("pair-analysis", size(opts.PairWorkers, procs/2))

	feedCh := make(chan feedItem, depth)
	probeCh := make(chan probeItem, depth)
	classifyCh := make(chan classifyItem, depth)
	pairCh := make(chan pairItem, depth)
	var histCh chan historyItem
	if opts.WithHistory {
		histCh = make(chan historyItem, depth)
	}

	// Feeder: one window slot per address — when the window is full the
	// pull from src stops until the sink catches up (backpressure against
	// generation/ingestion upstream).
	eng.Go(func() {
		for {
			addr, ok := src.Next()
			if !ok {
				break
			}
			idx := tracker.acquire()
			stats.Scanned.Add(1)
			feedCh <- feedItem{idx: idx, addr: addr}
		}
		close(feedCh)
	})

	// Stage 1 — disassembly filter (Section 4.1): contracts without a
	// DELEGATECALL opcode are rejected without an emulation. A terminal
	// read failure degrades the contract to Unresolved (Reader contract).
	pipeline.Run(eng, stFilter, feedCh, func(it feedItem) {
		var code []byte
		if re := chain.CaptureReadError(func() { code = d.chain.Code(it.addr) }); re != nil {
			tracker.deliverReport(it.idx, unresolvedReport(it.addr, re), 0)
			return
		}
		switch {
		case len(code) == 0:
			stats.NoCode.Add(1)
			tracker.deliverReport(it.idx, Report{Address: it.addr, Reason: "no code at address"}, 0)
		case !disasm.ContainsOp(code, evm.DELEGATECALL):
			stats.FilterRejected.Add(1)
			tracker.deliverReport(it.idx, Report{Address: it.addr, Reason: "bytecode contains no DELEGATECALL opcode"}, 0)
		default:
			probeCh <- probeItem{idx: it.idx, addr: it.addr, code: code}
		}
	}, func() { close(probeCh) })

	// Stage 2 — emulation probe (Section 4.2), one emulation per *unique*
	// runtime bytecode thanks to the verdict cache.
	pipeline.Run(eng, stProbe, probeCh, func(it probeItem) {
		var rep Report
		re := chain.CaptureReadError(func() {
			if opts.DisableDedup {
				rep = d.emulateProbe(it.addr, it.code, CraftCallData(it.addr, it.code)).rep
				stats.Emulations.Add(1)
			} else {
				var hit bool
				rep, hit = d.checkDeduped(it.addr, it.code)
				if hit {
					stats.CacheHits.Add(1)
				} else {
					stats.Emulations.Add(1)
				}
			}
		})
		if re != nil {
			rep = unresolvedReport(it.addr, re)
		} else if rep.EmulationErr != nil {
			stats.EmulationAborts.Add(1)
		}
		classifyCh <- classifyItem{idx: it.idx, code: it.code, rep: rep}
	}, func() { close(classifyCh) })

	// Stage 3 — classification (Table 4) and fan-out: a detected proxy
	// flows straight into pair analysis (and optionally history recovery)
	// with no barrier. The report is handed to the tracker BEFORE the
	// fan-out sends, declaring how many sub-analyses are outstanding, so
	// the item cannot be emitted incomplete.
	pipeline.Run(eng, stClassify, classifyCh, func(it classifyItem) {
		rep := it.rep
		if rep.IsProxy {
			rep.Standard = classify(it.code, rep)
			stats.ProxiesDetected.Add(1)
		}
		fanout := 0
		if rep.IsProxy && !rep.Logic.IsZero() {
			fanout = 1
			if histCh != nil {
				fanout = 2
			}
		}
		tracker.deliverReport(it.idx, rep, fanout)
		if fanout > 0 {
			if histCh != nil {
				histCh <- historyItem{idx: it.idx, rep: rep}
			}
			pairCh <- pairItem{idx: it.idx, proxy: rep.Address, logic: rep.Logic}
		}
	}, func() {
		close(pairCh)
		if histCh != nil {
			close(histCh)
		}
	})

	// Stage 4 (optional) — logic-history recovery via Algorithm 1. A read
	// failure degrades the contract's report to Unresolved at emission.
	if opts.WithHistory {
		pipeline.Run(eng, stHistory, histCh, func(it historyItem) {
			var h HistoricalAnalysis
			if re := chain.CaptureReadError(func() { h = d.AnalyzePairHistory(it.rep, sources) }); re != nil {
				tracker.deliverHistory(it.idx, nil, re)
				return
			}
			stats.HistoriesRecovered.Add(1)
			tracker.deliverHistory(it.idx, &h, nil)
		}, nil)
	}

	// Stage 5 — pair collision analysis (Section 5), degrading like stage 4.
	pipeline.Run(eng, stPair, pairCh, func(it pairItem) {
		var pa PairAnalysis
		if re := chain.CaptureReadError(func() { pa = d.AnalyzePair(it.proxy, it.logic, sources) }); re != nil {
			tracker.deliverPair(it.idx, nil, re)
			return
		}
		stats.PairsAnalyzed.Add(1)
		tracker.deliverPair(it.idx, &pa, nil)
	}, nil)

	eng.Wait()
	stats.StorageAPICalls.Add(d.chain.APICalls() - apiBefore)
	if hasResil {
		r, t := resil.ResilienceCounters()
		stats.Retries.Add(r - retriesBefore)
		stats.BreakerTrips.Add(t - tripsBefore)
	}
	return eng.Snapshot(stats)
}
