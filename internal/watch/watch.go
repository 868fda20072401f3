// Package watch turns the batch analysis path into a long-running chain
// follower: it tails new blocks from a chain.Reader, routes new
// deployments into the streaming analysis path, and detects upgrade
// events — a followed proxy's implementation cell changing value between
// blocks — invalidating exactly the affected verdicts and re-running the
// collision analysis against the new logic contract.
//
// Cursor model: the follower owns a single monotonic cursor, the last
// fully processed block. A block is processed as one unit (deployments
// analyzed, watched cells compared, upgrades handled) and the cursor is
// checkpointed after the unit completes, so a crash mid-block re-processes
// the whole block on restart. Re-processing is idempotent: analysis is
// deterministic, store writes skip byte-identical entries, and upgrade
// detection compares against the cell value as of the checkpointed cursor
// — the interrupted upgrade is re-detected and delivered exactly once per
// completed run. The head the cursor chases comes from the Reader; a
// faultchain.Pool reconciles replica heads into a monotonic watermark, so
// a stale replica can never roll the cursor backwards — and Poll itself
// refuses heads at or below the cursor.
//
// Invalidation granularity: an upgrade invalidates the proxy's exact
// bytecode-hash verdict, nothing else. Slot
// proxies technically survive without invalidation (verdict transfer
// re-anchors by re-reading the implementation slot), but the cached
// verdict still pins the guard fingerprint taken at probe time; beacon
// proxies genuinely require it — their verdict bakes in a logic address
// read through the beacon while their own storage (and thus the guard
// fingerprint) never changes across upgrades.
package watch

import (
	"encoding/json"
	"errors"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chain"
	"repro/internal/etypes"
	"repro/internal/proxion"
	"repro/internal/static"
)

// UpgradeEvent is one detected implementation change.
type UpgradeEvent struct {
	// Block is the height at which the watched cell changed.
	Block uint64
	// Proxy is the followed proxy whose delegate moved.
	Proxy etypes.Address
	// WatchAddr/Slot locate the cell that changed: the proxy's own
	// implementation slot, or its beacon's implementation cell.
	WatchAddr etypes.Address
	Slot      etypes.Hash
	// OldValue/NewValue are the cell values before and after.
	OldValue, NewValue etypes.Hash
	// Item is the post-upgrade re-analysis: the fresh verdict, the pair
	// analysis against the new logic, and (when the analyzer recovers
	// history) the full upgrade timeline per Algorithm 1.
	Item *proxion.Item
}

// Config wires a Follower.
type Config struct {
	// Reader is the node surface to follow — typically a faultchain.Pool
	// or a resilient client, but any chain.Reader works.
	Reader chain.Reader
	// Analyzer runs and records the analyses.
	Analyzer Analyzer
	// CheckpointPath, when set, persists the cursor atomically after
	// every processed block and is loaded by New for resumption.
	CheckpointPath string
	// PollInterval paces Run's polling loop (default 250ms).
	PollInterval time.Duration
	// OnDeploy, when set, receives every newly analyzed deployment.
	OnDeploy func(proxion.Item)
	// OnUpgrade, when set, receives every handled upgrade event after
	// invalidation and re-analysis completed.
	OnUpgrade func(UpgradeEvent)
	// OnError, when set, receives Poll errors from Run's loop (the poll
	// is retried at the next tick either way).
	OnError func(error)
	// LagProbe, when set, is sampled once per poll into the replica-lag
	// stat — wire it to a faultchain.Pool's MaxLag.
	LagProbe func() uint64
}

// watchEntry is one watched storage cell and the proxy it belongs to.
type watchEntry struct {
	proxy     etypes.Address
	watchAddr etypes.Address
	slot      etypes.Hash
	// last is the cell value as of the last processed block.
	last etypes.Hash
	dead bool
}

// Follower tails the chain. Poll and Stop are safe for concurrent use;
// Stats never blocks on an in-flight poll.
type Follower struct {
	cfg Config

	mu      sync.Mutex // serializes bootstrap and polls
	watched []*watchEntry
	known   map[etypes.Address]struct{}

	cursor atomic.Uint64
	stats  stats

	running  atomic.Bool
	stopOnce sync.Once
	stopCh   chan struct{}
	doneCh   chan struct{}

	// beforeInvalidate is the crash-injection hook for the
	// kill-mid-upgrade restart test: it runs after detection but before
	// any invalidation, so a panic here models a process death with no
	// half-applied invalidation state.
	beforeInvalidate func(UpgradeEvent)
}

// New builds a follower. If a checkpoint exists at CheckpointPath the
// cursor resumes from it and the watched set is rebuilt as of that height;
// otherwise following starts cold from block zero.
func New(cfg Config) (*Follower, error) {
	if cfg.Reader == nil || cfg.Analyzer == nil {
		return nil, errors.New("watch: Config needs Reader and Analyzer")
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 250 * time.Millisecond
	}
	f := &Follower{
		cfg:    cfg,
		known:  make(map[etypes.Address]struct{}),
		stopCh: make(chan struct{}),
		doneCh: make(chan struct{}),
	}
	if cfg.CheckpointPath != "" {
		cur, err := loadCheckpoint(cfg.CheckpointPath)
		if err != nil {
			return nil, err
		}
		f.cursor.Store(cur)
	}
	if f.cursor.Load() > 0 {
		if err := f.bootstrap(); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// Cursor returns the last fully processed block.
func (f *Follower) Cursor() uint64 { return f.cursor.Load() }

// Stats snapshots the follower's counters.
func (f *Follower) Stats() StatsSnapshot {
	return StatsSnapshot{
		Cursor:           f.cursor.Load(),
		BlocksFollowed:   f.stats.blocksFollowed.Load(),
		DeploymentsSeen:  f.stats.deploymentsSeen.Load(),
		UpgradesDetected: f.stats.upgradesDetected.Load(),
		Invalidations:    f.stats.invalidations.Load(),
		Reanalyses:       f.stats.reanalyses.Load(),
		ReplicaLag:       f.stats.replicaLag.Load(),
		Watched:          f.stats.watched.Load(),
	}
}

// Run polls until Stop. Poll errors are reported to OnError and retried
// at the next tick.
func (f *Follower) Run() {
	if !f.running.CompareAndSwap(false, true) {
		return
	}
	defer close(f.doneCh)
	t := time.NewTicker(f.cfg.PollInterval)
	defer t.Stop()
	for {
		select {
		case <-f.stopCh:
			return
		case <-t.C:
			if err := f.Poll(); err != nil && f.cfg.OnError != nil {
				f.cfg.OnError(err)
			}
		}
	}
}

// Stop halts the follower cleanly: the in-flight block (if any) finishes
// and is checkpointed, then Run's loop exits. Safe to call more than once
// and without Run.
func (f *Follower) Stop() {
	f.stopOnce.Do(func() { close(f.stopCh) })
	if f.running.Load() {
		<-f.doneCh
	}
}

// bootstrap rebuilds the watched set as of the checkpointed cursor: every
// contract deployed at or before it is (re-)analyzed — warm-started
// detectors re-emulate nothing — and watched cells capture their value at
// the cursor, so upgrades that landed after the checkpoint are detected by
// the next poll. No deploy/upgrade events are emitted for history the
// previous run already reported.
func (f *Follower) bootstrap() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	cursor := f.cursor.Load()
	var addrs []etypes.Address
	re := chain.CaptureReadError(func() {
		for _, a := range f.cfg.Reader.Contracts() {
			if f.cfg.Reader.CreatedAt(a) <= cursor {
				addrs = append(addrs, a)
			}
		}
	})
	if re != nil {
		return re
	}
	items, err := f.cfg.Analyzer.Analyze(addrs)
	if err != nil {
		return err
	}
	for _, it := range items {
		f.known[it.Report.Address] = struct{}{}
		f.track(it.Report, cursor)
	}
	return nil
}

// Poll advances the cursor to the reader's current head, processing each
// block in order. A head at or below the cursor (a stale replica) is a
// no-op. Safe for concurrent use; polls serialize.
func (f *Follower) Poll() error {
	f.mu.Lock()
	defer f.mu.Unlock()

	if f.cfg.LagProbe != nil {
		f.stats.replicaLag.Store(f.cfg.LagProbe())
	}
	var head uint64
	if re := chain.CaptureReadError(func() { head = f.cfg.Reader.CurrentBlock() }); re != nil {
		return re
	}
	cur := f.cursor.Load()
	if head <= cur {
		return nil
	}

	// One enumeration per poll: group unseen deployments by block.
	deploys := make(map[uint64][]etypes.Address)
	re := chain.CaptureReadError(func() {
		for _, a := range f.cfg.Reader.Contracts() {
			if _, ok := f.known[a]; ok {
				continue
			}
			at := f.cfg.Reader.CreatedAt(a)
			switch {
			case at > cur && at <= head:
				deploys[at] = append(deploys[at], a)
			case at <= cur:
				// A stale replica hid this deployment from the enumeration
				// when its block was processed. Route it into the next block
				// so it is analyzed now rather than silently dropped; the
				// known set keeps this exactly-once.
				deploys[cur+1] = append(deploys[cur+1], a)
			}
		}
	})
	if re != nil {
		return re
	}

	for b := cur + 1; b <= head; b++ {
		select {
		case <-f.stopCh:
			return nil
		default:
		}
		if err := f.processBlock(b, deploys[b]); err != nil {
			return err
		}
		f.cursor.Store(b)
		f.stats.blocksFollowed.Add(1)
		if err := f.checkpoint(); err != nil {
			return err
		}
	}
	return nil
}

// processBlock handles one block as a unit: new deployments first (so
// their watched cells anchor at this block), then the upgrade scan over
// every watched cell.
func (f *Follower) processBlock(b uint64, deployed []etypes.Address) error {
	if len(deployed) > 0 {
		items, err := f.cfg.Analyzer.Analyze(deployed)
		if err != nil {
			return err
		}
		f.stats.deploymentsSeen.Add(uint64(len(items)))
		for _, it := range items {
			f.known[it.Report.Address] = struct{}{}
			f.track(it.Report, b)
			if f.cfg.OnDeploy != nil {
				f.cfg.OnDeploy(it)
			}
		}
	}
	// Snapshot: handling an upgrade may rebuild a proxy's entries.
	entries := append([]*watchEntry(nil), f.watched...)
	for _, e := range entries {
		if e.dead {
			continue
		}
		var v etypes.Hash
		re := chain.CaptureReadError(func() {
			v = f.cfg.Reader.GetStorageAt(e.watchAddr, e.slot, b)
		})
		if re != nil {
			return re
		}
		if v == e.last {
			continue // includes upgrade-to-same-logic: a no-op, no invalidation
		}
		if err := f.handleUpgrade(e, b, v); err != nil {
			return err
		}
	}
	return nil
}

// handleUpgrade invalidates exactly the affected proxy's verdicts,
// re-analyzes it against the new logic, and delivers the event.
func (f *Follower) handleUpgrade(e *watchEntry, b uint64, v etypes.Hash) error {
	ev := UpgradeEvent{
		Block: b, Proxy: e.proxy, WatchAddr: e.watchAddr, Slot: e.slot,
		OldValue: e.last, NewValue: v,
	}
	if f.beforeInvalidate != nil {
		f.beforeInvalidate(ev)
	}
	n, err := f.cfg.Analyzer.Invalidate(e.proxy)
	f.stats.invalidations.Add(uint64(n))
	if err != nil {
		return err
	}
	items, err := f.cfg.Analyzer.Analyze([]etypes.Address{e.proxy})
	if err != nil {
		return err
	}
	f.stats.upgradesDetected.Add(1)
	f.stats.reanalyses.Add(1)
	e.last = v
	if len(items) == 1 {
		ev.Item = &items[0]
		if e.watchAddr == e.proxy && e.slot == proxion.SlotEIP1967Beacon {
			// The beacon pointer itself moved: the watch topology is
			// stale — rebuild this proxy's entries around the new beacon.
			f.removeEntries(e.proxy)
			f.track(items[0].Report, b)
		}
	}
	if f.cfg.OnUpgrade != nil {
		f.cfg.OnUpgrade(ev)
	}
	return nil
}

// track derives the watch plan for a fresh verdict, anchoring cell values
// as of block b:
//
//   - TargetStorage: watch the proxy's own implementation slot.
//   - TargetHardcoded with a nonzero EIP-1967 beacon slot pointing at a
//     contract whose static summary reads exactly one constant slot:
//     watch that beacon cell (the implementation) plus the proxy's beacon
//     pointer (re-pointing to a new beacon rebuilds the plan).
//   - anything else (minimal proxies, plain forwarders, non-proxies): the
//     delegate is immutable — nothing to watch.
func (f *Follower) track(rep proxion.Report, b uint64) {
	if !rep.IsProxy {
		return
	}
	var plan []*watchEntry
	switch rep.Target {
	case proxion.TargetStorage:
		plan = append(plan, &watchEntry{
			proxy: rep.Address, watchAddr: rep.Address, slot: rep.ImplSlot,
		})
	case proxion.TargetHardcoded:
		beacon, slot, ok := f.beaconCell(rep.Address, b)
		if !ok {
			return
		}
		plan = append(plan,
			&watchEntry{proxy: rep.Address, watchAddr: beacon, slot: slot},
			&watchEntry{proxy: rep.Address, watchAddr: rep.Address, slot: proxion.SlotEIP1967Beacon},
		)
	default:
		return
	}
	for _, e := range plan {
		e := e
		re := chain.CaptureReadError(func() {
			e.last = f.cfg.Reader.GetStorageAt(e.watchAddr, e.slot, b)
		})
		if re != nil {
			continue
		}
		f.watched = append(f.watched, e)
		f.stats.watched.Add(1)
	}
}

// beaconCell resolves a hard-coded-target proxy's beacon indirection as of
// block b: the EIP-1967 beacon slot must hold a deployed contract, and
// that contract's static summary must read exactly one constant storage
// slot — the implementation cell. Truncated summaries are refused.
func (f *Follower) beaconCell(proxy etypes.Address, b uint64) (etypes.Address, etypes.Hash, bool) {
	var beacon etypes.Address
	var slot etypes.Hash
	found := false
	re := chain.CaptureReadError(func() {
		v := f.cfg.Reader.GetStorageAt(proxy, proxion.SlotEIP1967Beacon, b)
		if v == (etypes.Hash{}) {
			return
		}
		addr := etypes.BytesToAddress(v[:])
		code := f.cfg.Reader.Code(addr)
		if len(code) == 0 {
			return
		}
		sum := static.Analyze(code)
		if sum.Truncated || len(sum.SlotReads) != 1 {
			return
		}
		beacon, slot, found = addr, sum.SlotReads[0], true
	})
	if re != nil || !found {
		return etypes.Address{}, etypes.Hash{}, false
	}
	return beacon, slot, true
}

// removeEntries kills every watched cell belonging to proxy.
func (f *Follower) removeEntries(proxy etypes.Address) {
	kept := f.watched[:0]
	for _, e := range f.watched {
		if e.proxy == proxy {
			e.dead = true
			f.stats.watched.Add(^uint64(0))
			continue
		}
		kept = append(kept, e)
	}
	f.watched = kept
}

// checkpointState is the cursor file's JSON shape.
type checkpointState struct {
	Cursor uint64 `json:"cursor"`
}

// checkpoint writes the cursor atomically (temp file + rename), so a
// crash leaves either the previous checkpoint or the new one, never a
// torn file.
func (f *Follower) checkpoint() error {
	if f.cfg.CheckpointPath == "" {
		return nil
	}
	data, err := json.Marshal(checkpointState{Cursor: f.cursor.Load()})
	if err != nil {
		return err
	}
	tmp := f.cfg.CheckpointPath + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, f.cfg.CheckpointPath)
}

// loadCheckpoint reads a cursor file; a missing file means a cold start.
func loadCheckpoint(path string) (uint64, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	var st checkpointState
	if err := json.Unmarshal(data, &st); err != nil {
		return 0, err
	}
	return st.Cursor, nil
}
