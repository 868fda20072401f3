package pipeline

import "sync/atomic"

// Counter is an atomic int64 with a JSON-friendly name. It is safe to
// update from any number of stage workers.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Stats holds the run-wide counters of one analysis pipeline execution.
// Stage-local counts (items processed, busy time) live on the stages;
// these are the cross-cutting totals the paper's Section 6.1 reports on.
// All fields are safe for concurrent update while the pipeline runs.
type Stats struct {
	// Scanned counts items fed into the pipeline.
	Scanned Counter
	// NoCode counts addresses rejected for holding no bytecode.
	NoCode Counter
	// FilterRejected counts contracts rejected by the disassembly filter
	// (no DELEGATECALL opcode) without an emulation.
	FilterRejected Counter
	// Emulations counts full EVM emulation probes actually executed.
	Emulations Counter
	// CacheHits counts detection verdicts served from the exact
	// bytecode-hash dedup cache instead of a fresh emulation.
	CacheHits Counter
	// EmulationAborts counts probes that ended in a terminal EVM error.
	EmulationAborts Counter
	// ProxiesDetected counts positive verdicts.
	ProxiesDetected Counter
	// PairsAnalyzed counts proxy/logic pairs through collision analysis.
	PairsAnalyzed Counter
	// HistoriesRecovered counts proxies whose full logic history was
	// recovered (only when the history stage is enabled).
	HistoriesRecovered Counter
	// StorageAPICalls is the number of archive getStorageAt calls the run
	// issued; set once at the end from the chain's counter delta.
	StorageAPICalls Counter
	// Unresolved counts contracts whose chain reads terminally failed and
	// that were degraded to an explicit Unresolved report instead of being
	// dropped; always zero over a fault-free node.
	Unresolved Counter
	// Retries counts read re-attempts by the resilient chain client; set
	// once at the end from the client's counter delta. Deterministic for a
	// fixed fault schedule below the retry budget: every faulted read fails
	// exactly its scheduled number of attempts, whatever the interleaving.
	Retries Counter
	// BreakerTrips counts closed→open circuit breaker transitions during
	// the run; like Retries, a client counter delta.
	BreakerTrips Counter
}

// StageSnapshot is the frozen instrumentation of one stage.
type StageSnapshot struct {
	Name      string  `json:"name"`
	Workers   int     `json:"workers"`
	Processed int64   `json:"processed"`
	BusyMS    float64 `json:"busy_ms"`
}

// Snapshot is the JSON-serializable summary of one pipeline run: the
// run-wide counters plus per-stage instrumentation. It is immutable once
// taken.
type Snapshot struct {
	Contracts       int64   `json:"contracts"`
	WallMS          float64 `json:"wall_ms"`
	ContractsPerSec float64 `json:"contracts_per_sec"`

	NoCode         int64 `json:"no_code"`
	FilterRejected int64 `json:"filter_rejected"`

	Emulations      int64   `json:"emulations"`
	CacheHits       int64   `json:"cache_hits"`
	CacheHitRate    float64 `json:"cache_hit_rate"`
	EmulationAborts int64   `json:"emulation_aborts"`

	// StructuralHits and StaticSummaries are always 0: the detector no
	// longer has a structural near-clone tier, so nothing sets them. They
	// are neither serialized nor part of Counters, and stay only because
	// the benchmark harness in perfbench/ still reads them; the next change
	// to that harness removes them.
	StructuralHits  int64 `json:"-"`
	StaticSummaries int64 `json:"-"`

	ProxiesDetected    int64 `json:"proxies_detected"`
	PairsAnalyzed      int64 `json:"pairs_analyzed"`
	HistoriesRecovered int64 `json:"histories_recovered,omitempty"`
	StorageAPICalls    int64 `json:"get_storage_at_calls"`

	Unresolved   int64 `json:"unresolved"`
	Retries      int64 `json:"read_retries"`
	BreakerTrips int64 `json:"breaker_trips"`

	Stages []StageSnapshot `json:"stages"`
}

// Counters exports the snapshot's deterministic run counters keyed by
// their JSON field names. "Deterministic" means: for a fixed input chain
// the values depend only on the analyzed contracts, never on scheduling,
// worker counts, or wall-clock — so two runs over the same seeded corpus
// must produce byte-identical maps. Wall-clock-derived fields (wall_ms,
// contracts_per_sec, cache_hit_rate, per-stage busy time) are deliberately
// excluded. Per-stage item counts are exported as stage_<name>_processed.
//
// This is the export hook the benchmark subsystem (internal/bench) records
// into BENCH_*.json reports and its regression gate compares across runs.
func (s *Snapshot) Counters() map[string]int64 {
	m := map[string]int64{
		"contracts":            s.Contracts,
		"no_code":              s.NoCode,
		"filter_rejected":      s.FilterRejected,
		"emulations":           s.Emulations,
		"cache_hits":           s.CacheHits,
		"emulation_aborts":     s.EmulationAborts,
		"proxies_detected":     s.ProxiesDetected,
		"pairs_analyzed":       s.PairsAnalyzed,
		"histories_recovered":  s.HistoriesRecovered,
		"get_storage_at_calls": s.StorageAPICalls,
		"unresolved":           s.Unresolved,
		"read_retries":         s.Retries,
		"breaker_trips":        s.BreakerTrips,
	}
	for _, st := range s.Stages {
		m["stage_"+st.Name+"_processed"] = st.Processed
	}
	return m
}

// Snapshot freezes the engine's stage instrumentation together with the
// run-wide stats into a serializable record. Call it after Wait.
func (e *Engine) Snapshot(st *Stats) *Snapshot {
	wall := e.Wall()
	snap := &Snapshot{
		Contracts:          st.Scanned.Load(),
		WallMS:             float64(wall.Microseconds()) / 1000,
		NoCode:             st.NoCode.Load(),
		FilterRejected:     st.FilterRejected.Load(),
		Emulations:         st.Emulations.Load(),
		CacheHits:          st.CacheHits.Load(),
		EmulationAborts:    st.EmulationAborts.Load(),
		ProxiesDetected:    st.ProxiesDetected.Load(),
		PairsAnalyzed:      st.PairsAnalyzed.Load(),
		HistoriesRecovered: st.HistoriesRecovered.Load(),
		StorageAPICalls:    st.StorageAPICalls.Load(),
		Unresolved:         st.Unresolved.Load(),
		Retries:            st.Retries.Load(),
		BreakerTrips:       st.BreakerTrips.Load(),
	}
	if secs := wall.Seconds(); secs > 0 {
		snap.ContractsPerSec = float64(snap.Contracts) / secs
	}
	if lookups := snap.CacheHits + snap.Emulations; lookups > 0 {
		snap.CacheHitRate = float64(snap.CacheHits) / float64(lookups)
	}
	for _, s := range e.stages {
		snap.Stages = append(snap.Stages, StageSnapshot{
			Name:      s.name,
			Workers:   s.workers,
			Processed: s.processed.Load(),
			BusyMS:    float64(s.busy.Load()) / 1e6,
		})
	}
	return snap
}
