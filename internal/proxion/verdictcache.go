package proxion

import (
	"container/list"
	"sync"

	"repro/internal/etypes"
)

// The landscape's extreme bytecode duplication (98.7% of contracts are
// byte-identical copies, Figure 5) means almost every emulation probe
// re-derives a verdict the detector has already computed for the same
// code. The verdict cache memoizes the *emulation verdict* per unique
// runtime bytecode — is the fallback a forwarding fallback, and where does
// it find its delegate target — and re-anchors it per address:
//
//   - Hard-coded targets (EIP-1167 clones) are embedded in the bytecode, so
//     identical code implies an identical logic address and the cached
//     address is reused directly.
//   - Storage targets are re-read from the duplicate's own implementation
//     slot, so byte-identical upgradeable proxies pointing at different
//     logic contracts still resolve their own logic.
//
// A verdict transfers to another address only when that address's values
// for every *other* storage slot the fallback read before forwarding (the
// "guard slots": pause flags, initializer bits, owner checks) match the
// values the verdict was recorded under — duplicates in a different guard
// state are re-emulated and cached under their own fingerprint.
// The cache runs in one of two modes. Unbounded (capacity 0, the default)
// remembers every distinct bytecode for the whole run — right for batch
// scans, where uniques number in the thousands. Bounded (capacity > 0)
// keeps at most capacity entries, evicting the least recently used; a
// streaming landscape run uses it so the cache's footprint, like every
// other layer, is a configured constant rather than a function of corpus
// size. Eviction trades determinism for the bound: a re-encountered
// evicted bytecode is re-emulated (a miss the unbounded cache would have
// served), so hit counts under eviction depend on scheduling.
type verdictCache struct {
	mu       sync.Mutex
	m        map[etypes.Hash]*codeVerdict
	capacity int
	// order tracks recency front-to-back (front = most recent); each
	// element's Value is the etypes.Hash key. elems indexes into it.
	order     *list.List
	elems     map[etypes.Hash]*list.Element
	evictions int64
}

func newVerdictCache() *verdictCache {
	return &verdictCache{
		m:     make(map[etypes.Hash]*codeVerdict),
		order: list.New(),
		elems: make(map[etypes.Hash]*list.Element),
	}
}

// setCapacity switches the cache between unbounded (n <= 0) and bounded
// modes, evicting immediately if the cache already exceeds the new bound.
func (c *verdictCache) setCapacity(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n < 0 {
		n = 0
	}
	c.capacity = n
	c.evictLocked()
}

// entry returns the (possibly fresh) record for one bytecode hash,
// marking it most recently used.
func (c *verdictCache) entry(codeHash etypes.Hash) *codeVerdict {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[codeHash]
	if !ok {
		e = &codeVerdict{}
		c.m[codeHash] = e
		c.elems[codeHash] = c.order.PushFront(codeHash)
		c.evictLocked()
	} else {
		c.order.MoveToFront(c.elems[codeHash])
	}
	return e
}

// install inserts a fully-formed record for one bytecode hash — the
// import path for persisted entries. An existing record wins: live state
// is never clobbered by a (possibly stale) persisted one. Returns whether
// the record was installed.
func (c *verdictCache) install(codeHash etypes.Hash, e *codeVerdict) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.m[codeHash]; exists {
		return false
	}
	c.m[codeHash] = e
	c.elems[codeHash] = c.order.PushFront(codeHash)
	c.evictLocked()
	// Eviction may have dropped the just-installed entry itself when the
	// cache is bounded below the import size; report installed only if it
	// survived.
	_, ok := c.m[codeHash]
	return ok
}

// invalidate drops the record for one bytecode hash, if present. The next
// duplicate of that code re-emulates and records fresh — the remedy for a
// verdict known to be stale (e.g. after out-of-band storage surgery on
// the recording address) or poisoned.
func (c *verdictCache) invalidate(codeHash etypes.Hash) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.elems[codeHash]; ok {
		c.order.Remove(el)
		delete(c.elems, codeHash)
	}
	_, ok := c.m[codeHash]
	delete(c.m, codeHash)
	return ok
}

// evictLocked drops least-recently-used entries until the cache fits its
// capacity. Callers hold c.mu. A goroutine mid-recording on an evicted
// entry still holds its *codeVerdict and finishes harmlessly into the
// orphan; the next duplicate simply re-emulates under a fresh entry.
func (c *verdictCache) evictLocked() {
	if c.capacity <= 0 {
		return
	}
	for len(c.m) > c.capacity {
		back := c.order.Back()
		if back == nil {
			return
		}
		key := back.Value.(etypes.Hash)
		c.order.Remove(back)
		delete(c.elems, key)
		delete(c.m, key)
		c.evictions++
	}
}

// len returns the number of cached bytecodes.
func (c *verdictCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// evictionCount returns the total evictions so far.
func (c *verdictCache) evictionCount() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}

// CacheEvictions returns how many verdict-cache entries a bounded run has
// evicted so far. Always zero in unbounded mode. Deliberately surfaced
// outside the pipeline counter set: eviction totals depend on worker
// scheduling, and the deterministic counters are compared byte-for-byte
// by the bench regression gate.
func (d *Detector) CacheEvictions() int64 { return d.verdicts.evictionCount() }

// InvalidateVerdict drops the cached verdict for one runtime bytecode
// hash, reporting whether an entry existed; subsequent duplicates
// re-emulate fresh.
func (d *Detector) InvalidateVerdict(codeHash etypes.Hash) bool {
	return d.verdicts.invalidate(codeHash)
}

// codeVerdict is the memoized detection state of one distinct runtime
// bytecode. The first emulation (under once) records which guard slots the
// fallback reads; afterwards verdicts are stored and looked up by the
// fingerprint of those slots' per-address values.
type codeVerdict struct {
	once sync.Once
	// firstAddr is the address the recording run probed; used to refuse
	// transferring a hard-coded verdict whose target is the contract
	// itself (an address-dependent delegate the cache cannot re-anchor).
	firstAddr  etypes.Address
	guardSlots []etypes.Hash

	mu   sync.Mutex
	byFP map[etypes.Hash]*probeVerdict
}

// probeVerdict is one cached emulation outcome.
type probeVerdict struct {
	forwarded bool
	// target/implSlot/logic describe where the fallback finds its delegate;
	// logic is the recording run's observed target, authoritative only for
	// hard-coded proxies.
	target   TargetSource
	implSlot etypes.Hash
	logic    etypes.Address
	// emulationErr/reason reproduce the negative outcomes; both are
	// address-independent by construction.
	emulationErr error
	reason       string
}

// checkDeduped runs the detection step for a contract that already passed
// the disassembly filter, serving the verdict from the exact-bytecode
// verdict cache when possible. It returns the report (without Standard,
// which the classification stage adds) and whether the cache served it
// without an emulation.
func (d *Detector) checkDeduped(addr etypes.Address, code []byte) (rep Report, hit bool) {
	entry := d.verdicts.entry(d.chain.CodeHash(addr))

	fresh := false
	entry.once.Do(func() {
		fresh = true
		out := d.emulateProbe(addr, code, CraftCallData(addr, code))
		entry.firstAddr = addr
		entry.guardSlots = out.guardSlots
		entry.byFP = map[etypes.Hash]*probeVerdict{
			d.guardFingerprint(addr, entry.guardSlots): verdictOf(out.rep),
		}
		rep = out.rep
	})
	if fresh {
		return rep, false
	}

	// A recording run that panicked with a read failure consumes the Once
	// but leaves the entry empty. Its guard slots are unknown, so verdicts
	// for this bytecode can never transfer safely: probe every duplicate
	// fresh and cache nothing.
	entry.mu.Lock()
	poisoned := entry.byFP == nil
	entry.mu.Unlock()
	if poisoned {
		return d.emulateProbe(addr, code, CraftCallData(addr, code)).rep, false
	}

	fp := d.guardFingerprint(addr, entry.guardSlots)
	entry.mu.Lock()
	v, ok := entry.byFP[fp]
	entry.mu.Unlock()
	if ok && d.transferable(v, addr, entry.firstAddr) {
		return d.anchorVerdict(addr, v), true
	}

	out := d.emulateProbe(addr, code, CraftCallData(addr, code))
	if !ok {
		nv := verdictOf(out.rep)
		entry.mu.Lock()
		if _, raced := entry.byFP[fp]; !raced {
			entry.byFP[fp] = nv
		}
		entry.mu.Unlock()
	}
	return out.rep, false
}

// verdictOf compresses a probe report into its cacheable core.
func verdictOf(rep Report) *probeVerdict {
	return &probeVerdict{
		forwarded:    rep.IsProxy,
		target:       rep.Target,
		implSlot:     rep.ImplSlot,
		logic:        rep.Logic,
		emulationErr: rep.EmulationErr,
		reason:       rep.Reason,
	}
}

// transferable rejects the shapes the cache cannot re-anchor exactly: a
// hard-coded delegate equal to the recording address itself (which would
// be a different address for every duplicate), and a storage target whose
// slot value carries nonzero upper bytes at this address — the uncached
// path would classify a packed slot as hard-coded, so such duplicates are
// re-emulated instead of transferred.
func (d *Detector) transferable(v *probeVerdict, addr, firstAddr etypes.Address) bool {
	if !v.forwarded {
		return true
	}
	if v.target == TargetHardcoded && v.logic == firstAddr && addr != firstAddr {
		return false
	}
	if v.target == TargetStorage {
		slotVal := d.chain.GetState(addr, v.implSlot)
		for _, b := range slotVal[:12] {
			if b != 0 {
				return false
			}
		}
	}
	return true
}

// anchorVerdict rebuilds a per-address report from a cached verdict,
// re-resolving the logic address from the duplicate's own storage for
// storage-based proxies.
func (d *Detector) anchorVerdict(addr etypes.Address, v *probeVerdict) Report {
	rep := Report{Address: addr, HasDelegateCall: true}
	if !v.forwarded {
		rep.EmulationErr = v.emulationErr
		rep.Reason = v.reason
		return rep
	}
	rep.IsProxy = true
	rep.Target = v.target
	if v.target == TargetStorage {
		rep.ImplSlot = v.implSlot
		slotVal := d.chain.GetState(addr, v.implSlot)
		rep.Logic = etypes.BytesToAddress(slotVal[:])
	} else {
		rep.Logic = v.logic
	}
	rep.Reason = "fallback forwarded the probe call data via DELEGATECALL to " + rep.Logic.Hex()
	return rep
}

// guardFingerprint hashes the address's current values of the given guard
// slots. Two addresses with the same fingerprint present identical storage
// to the fallback's pre-forwarding reads, so a verdict recorded under one
// applies to the other.
func (d *Detector) guardFingerprint(addr etypes.Address, slots []etypes.Hash) etypes.Hash {
	if len(slots) == 0 {
		return etypes.Hash{}
	}
	buf := make([]byte, 0, 64*len(slots))
	for _, s := range slots {
		v := d.chain.GetState(addr, s)
		buf = append(buf, s[:]...)
		buf = append(buf, v[:]...)
	}
	return etypes.Keccak(buf)
}
