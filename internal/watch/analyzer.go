package watch

import (
	"repro/internal/chain"
	"repro/internal/etypes"
	"repro/internal/proxion"
	"repro/internal/store"
)

// Analyzer is the analysis backend a Follower drives: it analyzes (and
// re-analyzes) contracts and drops cached verdicts ahead of a re-analysis.
// *DetectorAnalyzer implements it for standalone use; serve.Server
// implements it structurally so proxiond's follower feeds the same shards
// the HTTP API reads from.
type Analyzer interface {
	// Analyze runs the full analysis path over the addresses and records
	// the results in whatever caches and stores back the implementation.
	// One item per address, in input order.
	Analyze(addrs []etypes.Address) ([]proxion.Item, error)
	// Invalidate drops every cached verdict derived from addr's current
	// bytecode — the exact-hash entry, plus the result cache where the
	// implementation has one — and returns how many tiers actually held
	// one. The persistent store is
	// not touched here: the re-analysis that follows supersedes its entry
	// (append-only, last record wins), which is what keeps a crash
	// between invalidation and re-analysis recoverable.
	Invalidate(addr etypes.Address) (int, error)
}

// DetectorAnalyzer adapts a bare Detector (plus optional verdict store) to
// the Analyzer interface. Analyses run through the streaming engine so a
// follower's incremental results take exactly the code path batch analysis
// takes — the watch-parity oracle depends on that.
type DetectorAnalyzer struct {
	Detector *proxion.Detector
	Sources  proxion.SourceProvider
	// Store, when set, receives the exported verdict of every analyzed
	// bytecode; byte-identical re-puts are skipped inside the store.
	Store *store.Store
	// Options configures the analysis runs. WithHistory is forced on by
	// NewDetectorAnalyzer so upgrade re-analyses carry the full logic
	// timeline (Algorithm 1).
	Options proxion.AnalyzeOptions
}

// NewDetectorAnalyzer builds the standalone analyzer with history
// recovery enabled.
func NewDetectorAnalyzer(d *proxion.Detector, sources proxion.SourceProvider, st *store.Store) *DetectorAnalyzer {
	return &DetectorAnalyzer{
		Detector: d, Sources: sources, Store: st,
		Options: proxion.AnalyzeOptions{WithHistory: true},
	}
}

// Analyze streams the addresses through the engine and persists each
// verdict.
func (a *DetectorAnalyzer) Analyze(addrs []etypes.Address) ([]proxion.Item, error) {
	if len(addrs) == 0 {
		return nil, nil
	}
	items := make([]proxion.Item, 0, len(addrs))
	a.Detector.AnalyzeStream(proxion.SliceSource(addrs), a.Sources,
		proxion.SinkFunc(func(it proxion.Item) { items = append(items, it) }), a.Options)
	if a.Store != nil {
		for _, it := range items {
			a.persist(it.Report.Address)
		}
	}
	return items, nil
}

// persist mirrors the serve layer's store write: export the bytecode's
// verdict entry and append it (byte-identical re-puts are skipped).
func (a *DetectorAnalyzer) persist(addr etypes.Address) {
	var codeHash etypes.Hash
	if re := chain.CaptureReadError(func() { codeHash = a.Detector.Chain().CodeHash(addr) }); re != nil {
		return
	}
	if ent, ok := a.Detector.ExportVerdict(codeHash); ok {
		_ = a.Store.Put(ent)
	}
}

// Invalidate drops the exact-hash verdict for addr's current bytecode.
func (a *DetectorAnalyzer) Invalidate(addr etypes.Address) (int, error) {
	n := 0
	re := chain.CaptureReadError(func() {
		if a.Detector.InvalidateVerdict(a.Detector.Chain().CodeHash(addr)) {
			n++
		}
	})
	if re != nil {
		return n, re
	}
	return n, nil
}
