package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"repro/internal/chain"
	"repro/internal/etypes"
	"repro/internal/pipeline"
	"repro/internal/proxion"
	"repro/internal/static"
	"repro/internal/store"
)

// The service's JSON surface. Verdicts are flat, hex-encoded renderings
// of proxion.Report — the wire shape is decoupled from the analysis
// structs so the engine can evolve without breaking clients.

// Verdict is the JSON form of one contract's analysis report.
type Verdict struct {
	Address         string `json:"address"`
	IsProxy         bool   `json:"is_proxy"`
	Logic           string `json:"logic,omitempty"`
	Target          string `json:"target,omitempty"`
	ImplSlot        string `json:"impl_slot,omitempty"`
	Standard        string `json:"standard,omitempty"`
	HasDelegateCall bool   `json:"has_delegatecall"`
	EmulationErr    string `json:"emulation_err,omitempty"`
	Unresolved      bool   `json:"unresolved,omitempty"`
	ResolveErr      string `json:"resolve_err,omitempty"`
	Reason          string `json:"reason"`
}

// verdictOf renders a report for the wire.
func verdictOf(rep proxion.Report) Verdict {
	v := Verdict{
		Address:         rep.Address.Hex(),
		IsProxy:         rep.IsProxy,
		HasDelegateCall: rep.HasDelegateCall,
		Unresolved:      rep.Unresolved,
		Reason:          rep.Reason,
	}
	if rep.IsProxy {
		v.Logic = rep.Logic.Hex()
		v.Target = rep.Target.String()
		v.Standard = rep.Standard.String()
		if rep.Target == proxion.TargetStorage {
			v.ImplSlot = rep.ImplSlot.Hex()
		}
	}
	if rep.EmulationErr != nil {
		v.EmulationErr = rep.EmulationErr.Error()
	}
	if rep.ResolveErr != nil {
		v.ResolveErr = rep.ResolveErr.Error()
	}
	return v
}

// FunctionCollisionJSON is one colliding selector on the wire.
type FunctionCollisionJSON struct {
	Selector   string `json:"selector"`
	ProxyProto string `json:"proxy_proto,omitempty"`
	LogicProto string `json:"logic_proto,omitempty"`
}

// StorageCollisionJSON is one colliding storage slot on the wire.
type StorageCollisionJSON struct {
	Slot        string `json:"slot"`
	ProxyOffset int    `json:"proxy_offset"`
	ProxySize   int    `json:"proxy_size"`
	LogicOffset int    `json:"logic_offset"`
	LogicSize   int    `json:"logic_size"`
	Exploitable bool   `json:"exploitable"`
	Verified    bool   `json:"verified"`
}

// CollisionReport is the JSON form of one proxy/logic pair analysis.
type CollisionReport struct {
	Proxy           string                  `json:"proxy"`
	Logic           string                  `json:"logic"`
	IsProxy         bool                    `json:"is_proxy"`
	Functions       []FunctionCollisionJSON `json:"function_collisions"`
	Storage         []StorageCollisionJSON  `json:"storage_collisions"`
	ExploitVerified bool                    `json:"exploit_verified"`
	Reason          string                  `json:"reason,omitempty"`
}

// collisionsOf renders an item's pair analysis for the wire.
func collisionsOf(it proxion.Item) CollisionReport {
	out := CollisionReport{
		Proxy:     it.Report.Address.Hex(),
		IsProxy:   it.Report.IsProxy,
		Functions: []FunctionCollisionJSON{},
		Storage:   []StorageCollisionJSON{},
	}
	if !it.Report.IsProxy {
		out.Reason = it.Report.Reason
		return out
	}
	out.Logic = it.Report.Logic.Hex()
	if it.Pair == nil {
		out.Reason = "no pair analysis (logic address unresolved)"
		return out
	}
	for _, fc := range it.Pair.Functions {
		out.Functions = append(out.Functions, FunctionCollisionJSON{
			Selector:   fmt.Sprintf("0x%x", fc.Selector),
			ProxyProto: fc.ProxyProto,
			LogicProto: fc.LogicProto,
		})
	}
	for _, sc := range it.Pair.Storage {
		out.Storage = append(out.Storage, StorageCollisionJSON{
			Slot:        sc.Slot.Hex(),
			ProxyOffset: sc.ProxyOffset,
			ProxySize:   sc.ProxySize,
			LogicOffset: sc.LogicOffset,
			LogicSize:   sc.LogicSize,
			Exploitable: sc.Exploitable,
			Verified:    sc.Verified,
		})
	}
	out.ExploitVerified = it.Pair.ExploitVerified
	return out
}

// StaticDelegateJSON is one reachable DELEGATECALL site on the wire.
type StaticDelegateJSON struct {
	PC               uint64 `json:"pc"`
	Provenance       string `json:"provenance"`
	Target           string `json:"target,omitempty"`
	Slot             string `json:"slot,omitempty"`
	ForwardsCalldata bool   `json:"forwards_calldata"`
	TargetTainted    bool   `json:"target_tainted,omitempty"`
}

// StaticReport is the /v1/static payload: the emulation-free static
// profile of one contract's runtime bytecode.
type StaticReport struct {
	Address         string               `json:"address"`
	CodeHash        string               `json:"code_hash"`
	Fingerprint     string               `json:"fingerprint"`
	Selectors       []string             `json:"selectors"`
	SlotReads       []string             `json:"slot_reads,omitempty"`
	SlotWrites      []string             `json:"slot_writes,omitempty"`
	KeccakReads     int                  `json:"keccak_reads,omitempty"`
	KeccakWrites    int                  `json:"keccak_writes,omitempty"`
	Delegates       []StaticDelegateJSON `json:"delegates"`
	HasDelegateCall bool                 `json:"has_delegatecall"`
	Blocks          int                  `json:"blocks"`
	ReachableBlocks int                  `json:"reachable_blocks"`
	MaskedImmFlow   bool                 `json:"masked_imm_flow,omitempty"`
	Truncated       bool                 `json:"truncated,omitempty"`
}

// staticReportOf renders a static summary for the wire.
func staticReportOf(addr etypes.Address, sum *static.Summary) StaticReport {
	out := StaticReport{
		Address:         addr.Hex(),
		CodeHash:        sum.CodeHash.Hex(),
		Fingerprint:     sum.Fingerprint.Hex(),
		Selectors:       []string{},
		Delegates:       []StaticDelegateJSON{},
		HasDelegateCall: sum.HasDelegateCall,
		Blocks:          sum.Blocks,
		ReachableBlocks: sum.ReachableBlocks,
		KeccakReads:     sum.KeccakReads,
		KeccakWrites:    sum.KeccakWrites,
		MaskedImmFlow:   sum.MaskedImmFlow,
		Truncated:       sum.Truncated,
	}
	for _, sel := range sum.Selectors {
		out.Selectors = append(out.Selectors, fmt.Sprintf("0x%x", sel))
	}
	for _, s := range sum.SlotReads {
		out.SlotReads = append(out.SlotReads, s.Hex())
	}
	for _, s := range sum.SlotWrites {
		out.SlotWrites = append(out.SlotWrites, s.Hex())
	}
	for _, del := range sum.Delegates {
		j := StaticDelegateJSON{
			PC:               del.PC,
			Provenance:       del.Provenance.String(),
			ForwardsCalldata: del.ForwardsCalldata,
			TargetTainted:    del.TargetTainted,
		}
		switch del.Provenance {
		case static.ProvHardcoded:
			j.Target = del.Target.Hex()
		case static.ProvSlotConst:
			j.Slot = del.Slot.Hex()
		}
		out.Delegates = append(out.Delegates, j)
	}
	return out
}

// ShardStats is one shard's live statistics: the same proxion.Summary
// shape the CLI's -json flag emits, fed from the shard's fold-as-you-go
// builder and live pipeline counters.
type ShardStats struct {
	Shard   int             `json:"shard"`
	Summary proxion.Summary `json:"summary"`
}

// StatsResponse is the /v1/stats payload.
type StatsResponse struct {
	Counters Counters `json:"counters"`
	// Total is the shard summaries merged — the whole service's landscape
	// view in the -json summary shape.
	Total  proxion.Summary `json:"total"`
	Shards []ShardStats    `json:"shards"`
	Store  *store.Stats    `json:"store,omitempty"`
}

// liveSnapshot freezes a running shard's atomic counters into the
// pipeline.Snapshot shape without waiting for the engine to finish —
// stage instrumentation and wall-clock fields stay zero, the run counters
// are exact at the instant of the read.
func liveSnapshot(st *pipeline.Stats) *pipeline.Snapshot {
	snap := &pipeline.Snapshot{
		Contracts:          st.Scanned.Load(),
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
	if lookups := snap.CacheHits + snap.Emulations; lookups > 0 {
		snap.CacheHitRate = float64(snap.CacheHits) / float64(lookups)
	}
	return snap
}

// Stats assembles the service-wide statistics: per-shard summaries in the
// -json shape (with live pipeline counters), their merge, the store's
// counters and the request counters.
func (s *Server) Stats() StatsResponse {
	resp := StatsResponse{Counters: s.Counters()}
	total := proxion.NewSummaryBuilder()
	for _, sh := range s.shards {
		sh.mu.Lock()
		// Clone the builder under the shard lock by merging it into a
		// fresh one; the shard keeps folding undisturbed.
		clone := proxion.NewSummaryBuilder()
		clone.Merge(sh.summary)
		snap := sh.snap
		sh.mu.Unlock()
		if snap == nil {
			snap = liveSnapshot(&sh.stats)
		}
		total.Merge(clone)
		resp.Shards = append(resp.Shards, ShardStats{
			Shard:   sh.id,
			Summary: clone.Summary(snap),
		})
	}
	resp.Total = total.Summary(nil)
	if s.st != nil {
		st := s.st.Stats()
		resp.Store = &st
	}
	return resp
}

// Handler returns the service's HTTP API:
//
//	GET  /healthz                 — liveness
//	GET  /v1/verdict?addr=0x…     — one contract's verdict
//	POST /v1/verdicts             — {"addresses": [...]} → batch verdicts
//	POST /v1/scan                 — {"addresses": [...]} → NDJSON verdict stream
//	GET  /v1/collisions?addr=0x…  — one proxy's collision report
//	GET  /v1/static?addr=0x…      — one contract's static bytecode profile
//	GET  /v1/stats                — per-shard + total summaries, store stats
//	GET  /v1/watch/stats          — chain-follower counters (404 unless -follow)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/v1/verdict", s.handleVerdict)
	mux.HandleFunc("/v1/verdicts", s.handleVerdicts)
	mux.HandleFunc("/v1/scan", s.handleScan)
	mux.HandleFunc("/v1/collisions", s.handleCollisions)
	mux.HandleFunc("/v1/static", s.handleStatic)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/watch/stats", s.handleWatchStats)
	return mux
}

// handleWatchStats serves the wired follower's counter snapshot; without a
// follower the endpoint does not exist.
func (s *Server) handleWatchStats(w http.ResponseWriter, r *http.Request) {
	fn := s.watchStatsFn()
	if fn == nil {
		writeError(w, http.StatusNotFound, "no chain follower attached")
		return
	}
	writeJSON(w, http.StatusOK, fn())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "shards": len(s.shards)})
}

// addrParam parses the addr query parameter.
func addrParam(r *http.Request) (etypes.Address, error) {
	raw := r.URL.Query().Get("addr")
	if raw == "" {
		return etypes.Address{}, fmt.Errorf("missing addr parameter")
	}
	return etypes.HexToAddress(raw)
}

func (s *Server) handleVerdict(w http.ResponseWriter, r *http.Request) {
	addr, err := addrParam(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad address: %v", err)
		return
	}
	it, err := s.Lookup(addr)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, verdictOf(it.Report))
}

// batchRequest is the body of /v1/verdicts and /v1/scan.
type batchRequest struct {
	Addresses []string `json:"addresses"`
}

// maxBatch bounds one batch request.
const maxBatch = 65536

// parseBatch decodes and validates a batch body.
func parseBatch(r *http.Request) ([]etypes.Address, error) {
	var req batchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return nil, fmt.Errorf("bad body: %w", err)
	}
	if len(req.Addresses) == 0 {
		return nil, fmt.Errorf("empty address list")
	}
	if len(req.Addresses) > maxBatch {
		return nil, fmt.Errorf("batch of %d exceeds the %d-address limit", len(req.Addresses), maxBatch)
	}
	out := make([]etypes.Address, 0, len(req.Addresses))
	for _, raw := range req.Addresses {
		a, err := etypes.HexToAddress(raw)
		if err != nil {
			return nil, fmt.Errorf("bad address %q: %w", raw, err)
		}
		out = append(out, a)
	}
	return out, nil
}

// lookupAll fans a batch across the shards concurrently and returns the
// items in request order (nil error entries where lookups failed).
func (s *Server) lookupAll(addrs []etypes.Address) ([]proxion.Item, []error) {
	items := make([]proxion.Item, len(addrs))
	errs := make([]error, len(addrs))
	var wg sync.WaitGroup
	for i, a := range addrs {
		wg.Add(1)
		go func(i int, a etypes.Address) {
			defer wg.Done()
			items[i], errs[i] = s.Lookup(a)
		}(i, a)
	}
	wg.Wait()
	return items, errs
}

func (s *Server) handleVerdicts(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	addrs, err := parseBatch(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	items, errs := s.lookupAll(addrs)
	verdicts := make([]Verdict, len(items))
	for i := range items {
		if errs[i] != nil {
			verdicts[i] = Verdict{Address: addrs[i].Hex(), Reason: "error: " + errs[i].Error()}
			continue
		}
		verdicts[i] = verdictOf(items[i].Report)
	}
	writeJSON(w, http.StatusOK, map[string]any{"verdicts": verdicts})
}

// handleScan streams verdicts as NDJSON, one line per address, flushed as
// each analysis lands — the bulk interface for driving large scans
// through the service without buffering the whole response.
func (s *Server) handleScan(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	addrs, err := parseBatch(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	// Dispatch everything up front (the engines coalesce and pipeline),
	// then emit in request order as results land.
	type slot struct {
		it  proxion.Item
		err error
	}
	results := make([]chan slot, len(addrs))
	for i, a := range addrs {
		results[i] = make(chan slot, 1)
		go func(ch chan slot, a etypes.Address) {
			it, err := s.Lookup(a)
			ch <- slot{it: it, err: err}
		}(results[i], a)
	}
	for i := range results {
		res := <-results[i]
		if res.err != nil {
			enc.Encode(map[string]string{"address": addrs[i].Hex(), "error": res.err.Error()})
		} else {
			enc.Encode(verdictOf(res.it.Report))
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

func (s *Server) handleCollisions(w http.ResponseWriter, r *http.Request) {
	addr, err := addrParam(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad address: %v", err)
		return
	}
	it, err := s.Lookup(addr)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, collisionsOf(it))
}

// handleStatic serves the static analysis of one contract's bytecode. It
// never enters the engine: the code is read through the owning shard's
// node surface and analyzed without emulation, so it also works for
// contracts the dynamic probe cannot resolve.
func (s *Server) handleStatic(w http.ResponseWriter, r *http.Request) {
	addr, err := addrParam(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad address: %v", err)
		return
	}
	sh := s.shardFor(addr)
	var code []byte
	if re := chain.CaptureReadError(func() { code = sh.reader.Code(addr) }); re != nil {
		writeError(w, http.StatusServiceUnavailable, "code read failed: %v", re)
		return
	}
	if len(code) == 0 {
		writeError(w, http.StatusNotFound, "no code at %s", addr.Hex())
		return
	}
	writeJSON(w, http.StatusOK, staticReportOf(addr, static.Analyze(code)))
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}
