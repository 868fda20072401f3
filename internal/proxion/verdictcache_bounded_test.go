package proxion

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/abi"
	"repro/internal/chain"
	"repro/internal/etypes"
	"repro/internal/solc"
	"repro/internal/u256"
)

func hashOfByte(b byte) etypes.Hash {
	var h etypes.Hash
	h[31] = b
	return h
}

// TestVerdictCacheEvictionOrder pins the LRU policy at the cache level:
// with capacity 2, touching A before inserting C must evict B, not A.
func TestVerdictCacheEvictionOrder(t *testing.T) {
	c := newVerdictCache()
	c.setCapacity(2)

	hA, hB, hC := hashOfByte(1), hashOfByte(2), hashOfByte(3)
	c.entry(hA)
	c.entry(hB)
	c.entry(hA) // refresh A: B is now least recently used
	c.entry(hC) // over capacity: evict B

	if c.len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", c.len())
	}
	c.mu.Lock()
	_, hasA := c.m[hA]
	_, hasB := c.m[hB]
	_, hasC := c.m[hC]
	c.mu.Unlock()
	if !hasA || hasB || !hasC {
		t.Fatalf("after insert A,B, touch A, insert C: hasA=%v hasB=%v hasC=%v, want true,false,true", hasA, hasB, hasC)
	}
	if got := c.evictionCount(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
}

// TestVerdictCacheShrinkOnSetCapacity checks that lowering the capacity of
// a populated cache evicts immediately, oldest first, and that capacity 0
// returns the cache to unbounded mode.
func TestVerdictCacheShrinkOnSetCapacity(t *testing.T) {
	c := newVerdictCache()
	for i := byte(1); i <= 5; i++ {
		c.entry(hashOfByte(i))
	}
	c.setCapacity(2)
	if c.len() != 2 {
		t.Fatalf("after shrink to 2: len = %d", c.len())
	}
	c.mu.Lock()
	_, has4 := c.m[hashOfByte(4)]
	_, has5 := c.m[hashOfByte(5)]
	c.mu.Unlock()
	if !has4 || !has5 {
		t.Fatal("shrink evicted the most recent entries instead of the oldest")
	}
	if got := c.evictionCount(); got != 3 {
		t.Fatalf("evictions = %d, want 3", got)
	}

	c.setCapacity(0)
	for i := byte(6); i <= 20; i++ {
		c.entry(hashOfByte(i))
	}
	if c.len() != 17 {
		t.Fatalf("unbounded mode evicted: len = %d, want 17", c.len())
	}
}

// TestVerdictCacheInvalidate covers the staleness remedy: after invalidate,
// the old record (including a poisoned one, whose recording run panicked
// and consumed its sync.Once) is gone and the next entry() starts fresh.
func TestVerdictCacheInvalidate(t *testing.T) {
	c := newVerdictCache()
	h := hashOfByte(9)

	e := c.entry(h)
	func() {
		defer func() { _ = recover() }()
		e.once.Do(func() { panic("recording run died mid-probe") })
	}()
	if e.byFP != nil {
		t.Fatal("test setup: entry should be poisoned (byFP nil, once consumed)")
	}

	c.invalidate(h)
	if c.len() != 0 {
		t.Fatalf("after invalidate: len = %d, want 0", c.len())
	}
	e2 := c.entry(h)
	if e2 == e {
		t.Fatal("entry after invalidate is the poisoned record, not a fresh one")
	}
	ran := false
	e2.once.Do(func() { ran = true })
	if !ran {
		t.Fatal("fresh entry's once was already consumed")
	}

	// Invalidating an absent hash is a no-op.
	c.invalidate(hashOfByte(200))
}

func boundedTestLogic() *solc.Contract {
	return &solc.Contract{
		Name: "Logic",
		Vars: []solc.Var{
			{Name: "reserved", Type: solc.TypeAddress},
			{Name: "value", Type: solc.TypeUint256},
		},
		Funcs: []solc.Func{
			{ABI: abi.Function{Name: "value"}, Body: []solc.Stmt{solc.ReturnStorageVar{Var: "value"}}},
		},
	}
}

// TestBoundedCacheHitAccounting interleaves two duplicate bytecode
// families (A B A B) through a single-worker pipeline, so probe order is
// the contract order and the accounting is exact. Capacity 1 thrashes:
// every probe is a miss and an eviction chain; capacity 2 holds both
// families and serves the re-encounters from cache. Both must produce the
// identical analysis.
func TestBoundedCacheHitAccounting(t *testing.T) {
	build := func() *chain.Chain {
		c := chain.New()
		logic := etypes.MustAddress("0x0000000000000000000000000000000000000900")
		c.InstallContract(logic, solc.MustCompile(boundedTestLogic()))
		for i := 0; i < 4; i++ {
			// Even addresses get family A (slot 3), odd family B (slot 4) —
			// sorted contract order interleaves the two bytecodes.
			slot := uint64(3 + i%2)
			code := solc.MustCompile(&solc.Contract{
				Name:     "P",
				Fallback: solc.Fallback{Kind: solc.FallbackDelegateStorage, Slot: etypes.HashFromWord(u256.FromUint64(slot))},
			})
			p := etypes.MustAddress(fmt.Sprintf("0x00000000000000000000000000000000000010%02x", i))
			c.InstallContract(p, code)
			c.SetStorageDirect(p, etypes.HashFromWord(u256.FromUint64(slot)), etypes.HashFromWord(logic.Word()))
		}
		return c
	}
	serial := AnalyzeOptions{FilterWorkers: 1, ProbeWorkers: 1, ClassifyWorkers: 1, PairWorkers: 1}

	thrashOpts := serial
	thrashOpts.CacheCapacity = 1
	dThrash := NewDetector(build())
	thrash := dThrash.AnalyzeAllWithOptions(nil, thrashOpts)

	roomyOpts := serial
	roomyOpts.CacheCapacity = 2
	dRoomy := NewDetector(build())
	roomy := dRoomy.AnalyzeAllWithOptions(nil, roomyOpts)

	// Probe order is A B A B. Capacity 1: every arrival misses and evicts
	// the other family — 4 emulations, 0 hits, 3 evictions. Capacity 2:
	// 2 emulations, 2 hits, 0 evictions. Hits+emulations must account for
	// every probed contract in both modes.
	if thrash.Stats.Emulations != 4 || thrash.Stats.CacheHits != 0 {
		t.Errorf("capacity 1: emulations=%d hits=%d, want 4/0", thrash.Stats.Emulations, thrash.Stats.CacheHits)
	}
	if got := dThrash.CacheEvictions(); got != 3 {
		t.Errorf("capacity 1: evictions=%d, want 3", got)
	}
	if roomy.Stats.Emulations != 2 || roomy.Stats.CacheHits != 2 {
		t.Errorf("capacity 2: emulations=%d hits=%d, want 2/2", roomy.Stats.Emulations, roomy.Stats.CacheHits)
	}
	if got := dRoomy.CacheEvictions(); got != 0 {
		t.Errorf("capacity 2: evictions=%d, want 0", got)
	}

	thrash.Stats, roomy.Stats = nil, nil
	if !reflect.DeepEqual(thrash, roomy) {
		t.Fatal("eviction changed analysis output: thrashing and roomy runs differ")
	}
}

// TestBoundedCacheNoStaleVerdictAfterInvalidate drives the detector path:
// a verdict is recorded for a bytecode, the recording address's guard
// state is then changed out from under the cache, and InvalidateVerdict
// must force the next duplicate to re-emulate rather than transfer the
// stale record. (The guard-fingerprint mechanism already isolates *keyed*
// state; invalidation is the remedy when the recorded baseline itself is
// no longer trustworthy.)
func TestBoundedCacheNoStaleVerdictAfterInvalidate(t *testing.T) {
	c := chain.New()
	slot := etypes.HashFromWord(u256.FromUint64(3))
	code := solc.MustCompile(&solc.Contract{
		Name:     "P",
		Fallback: solc.Fallback{Kind: solc.FallbackDelegateStorage, Slot: slot},
	})
	logic := etypes.MustAddress("0x0000000000000000000000000000000000000900")
	c.InstallContract(logic, solc.MustCompile(boundedTestLogic()))
	p1 := etypes.MustAddress("0x0000000000000000000000000000000000001001")
	p2 := etypes.MustAddress("0x0000000000000000000000000000000000001002")
	for _, p := range []etypes.Address{p1, p2} {
		c.InstallContract(p, code)
		c.SetStorageDirect(p, slot, etypes.HashFromWord(logic.Word()))
	}

	d := NewDetector(c)
	if _, hit := d.checkDeduped(p1, code); hit {
		t.Fatal("first probe cannot be a cache hit")
	}
	if _, hit := d.checkDeduped(p2, code); !hit {
		t.Fatal("duplicate with identical guard state should hit")
	}

	// Invalidation drops the exact-hash verdict, so the re-probe of p2
	// emulates against its own live storage: nothing stale is served, and
	// what must not happen is a hit on the dropped entry.
	d.InvalidateVerdict(c.CodeHash(p1))
	rep, hit := d.checkDeduped(p2, code)
	if hit {
		t.Fatal("verdict served from the exact cache after invalidation")
	}
	if !rep.IsProxy || rep.Logic != logic {
		t.Fatalf("re-recorded verdict wrong: proxy=%v logic=%s", rep.IsProxy, rep.Logic)
	}
	// And the re-recorded verdict serves duplicates again.
	if _, hit := d.checkDeduped(p1, code); !hit {
		t.Fatal("cache did not repopulate after invalidation")
	}
}
