package evm

import (
	"testing"

	"repro/internal/etypes"
	"repro/internal/keccak"
	"repro/internal/u256"
)

// TestDecodeJumpIndex pins jumpIdx: JUMPDEST pcs map to their instruction
// index, everything else (including a 0x5b byte inside push data) is -1.
func TestDecodeJumpIndex(t *testing.T) {
	// PUSH2 0x5b5b (push data mimics JUMPDEST); JUMPDEST; STOP
	code := []byte{0x61, 0x5b, 0x5b, 0x5b, 0x00}
	p := decode(code)
	if got := p.jumpTo(u256.FromUint64(3)); got < 0 || p.instrs[got].op != JUMPDEST {
		t.Fatalf("jumpTo(3)=%d, want index of the real JUMPDEST", got)
	}
	for _, pc := range []uint64{0, 1, 2, 4, 5, 100} {
		if got := p.jumpTo(u256.FromUint64(pc)); got != -1 {
			t.Errorf("jumpTo(%d)=%d, want -1", pc, got)
		}
	}
	if got := p.jumpTo(u256.FromBytes([]byte{1, 0, 0, 0, 0, 0, 0, 0, 3})); got != -1 {
		t.Errorf("jumpTo(2^64+3)=%d, want -1", got)
	}
}

// TestDecodeTruncatedPush pins the pad-with-trailing-zeros immediate of a
// PUSH cut off by end of code, matching the reference loop's semantics.
func TestDecodeTruncatedPush(t *testing.T) {
	// PUSH32 with only one data byte: value is 0x01 followed by 31 zeros.
	p := decode([]byte{0x7f, 0x01})
	if len(p.instrs) != 1 || p.instrs[0].kind != kindPush {
		t.Fatalf("decoded %d instrs, want one push", len(p.instrs))
	}
	var want [32]byte
	want[0] = 0x01
	if got := p.instrs[0].imm; !got.Eq(u256.FromBytes32(want)) {
		t.Fatalf("truncated push32 imm=%s, want 0x01 zero-padded", got.Hex())
	}

	// PUSH1 with no data at all: immediate is zero.
	p = decode([]byte{0x60})
	if got := p.instrs[0].imm; !got.Eq(u256.Zero()) {
		t.Fatalf("dataless push1 imm=%s, want 0", got.Hex())
	}
}

// TestProgramCache pins the cache contract: one program per code hash,
// zero hashes bypass it, and the stats counters track hits and misses.
func TestProgramCache(t *testing.T) {
	ResetDecodeCache()
	defer ResetDecodeCache()

	code := []byte{0x60, 0x01, 0x60, 0x02, 0x01, 0x00}
	hash := keccak.Sum256(code)

	p1 := programFor(hash, code)
	p2 := programFor(hash, code)
	if p1 != p2 {
		t.Fatalf("same code hash returned distinct programs")
	}
	if hits, misses, entries := DecodeCacheStats(); hits != 1 || misses != 1 || entries != 1 {
		t.Fatalf("stats hits=%d misses=%d entries=%d, want 1/1/1", hits, misses, entries)
	}

	// Zero hash bypasses the cache: fresh program, no counter movement.
	z1 := programFor(etypes.Hash{}, code)
	z2 := programFor(etypes.Hash{}, code)
	if z1 == z2 {
		t.Fatalf("zero-hash decodes must not be cached")
	}
	if hits, misses, _ := DecodeCacheStats(); hits != 1 || misses != 1 {
		t.Fatalf("zero-hash decode moved cache counters: hits=%d misses=%d", hits, misses)
	}

	// Empty code has no program at all.
	if p := programFor(hash, nil); p != nil {
		t.Fatalf("empty code produced a program")
	}
}

// TestProgramCacheEviction fills the cache past capacity and checks it both
// bounds its size and keeps serving correct programs afterwards.
func TestProgramCacheEviction(t *testing.T) {
	ResetDecodeCache()
	defer ResetDecodeCache()

	code := make([]byte, 4)
	for i := 0; i < progCacheCap+64; i++ {
		code[0], code[1] = 0x60, byte(i) // PUSH1 i; pad
		code[2], code[3] = byte(i>>8), 0x00
		programFor(keccak.Sum256(code), code)
	}
	if _, _, entries := DecodeCacheStats(); entries > progCacheCap {
		t.Fatalf("cache grew to %d entries, cap is %d", entries, progCacheCap)
	}
	// A re-request after eviction still returns a working program.
	code[0], code[1], code[2], code[3] = 0x60, 0x00, 0x00, 0x00
	p := programFor(keccak.Sum256(code), code)
	if p == nil || len(p.instrs) == 0 {
		t.Fatalf("post-eviction decode failed")
	}
}
