package evm

import (
	"sync"

	"repro/internal/etypes"
	"repro/internal/u256"
)

// This file implements the pre-decoded instruction stream the fast
// interpreter executes. One decode pass per bytecode produces a []instr
// with PUSH immediates materialized as u256.Int, per-op stack requirements
// and constant gas folded into each instr, and a pc → instruction-index
// jump table replacing the lazy JUMPDEST map. Every instr is one source
// instruction at its original pc, so tracers see the same steps as under
// the reference loop. Programs are cached per code hash so landscape-scale
// probing decodes each distinct bytecode once.

// Instruction kinds. Plain opcodes use uint16(op) directly (0x00–0xff);
// the grouped forms live above the opcode space so the run loop switches
// on one dense integer.
const (
	kindInvalid uint16 = 0x100 + iota // undefined opcode or INVALID
	kindPush                          // PUSH0..PUSH32, immediate materialized
	kindDup                           // DUP1..DUP16
	kindSwap                          // SWAP1..SWAP16
	kindLog                           // LOG0..LOG4
)

// instr is one pre-decoded instruction with its static checks folded in.
type instr struct {
	imm  u256.Int // PUSH immediate
	pc   uint32   // source pc
	kind uint16
	gas  uint16 // constant gas (dynamic parts charged in the body)
	need uint16 // minimum stack depth required on entry
	peak int16  // overflow check: fail if depth+peak > stackLimit
	op   Op     // source opcode (tracing, CREATE/CALL variants)
	n    uint8  // dup/swap distance or log topic count
}

// program is a decoded bytecode ready for the fast loop.
type program struct {
	instrs  []instr
	jumpIdx []int32 // pc → instruction index of a JUMPDEST there, else -1
	codeLen uint64
}

// jumpTo resolves a dynamic jump destination to an instruction index,
// returning -1 for anything the reference loop's validJumpdest rejects.
func (p *program) jumpTo(dest u256.Int) int32 {
	if !dest.IsUint64() {
		return -1
	}
	pc := dest.Uint64()
	if pc >= uint64(len(p.jumpIdx)) {
		return -1
	}
	return p.jumpIdx[pc]
}

// decode pre-decodes code into a program. A PUSH truncated by end-of-code
// pads with trailing zero bytes, same as the reference loop's
// copy-into-fresh-buffer semantics.
func decode(code []byte) *program {
	// Size instrs exactly: the program stays cached, and push data makes
	// the instruction count well below len(code).
	count := 0
	for pc := 0; pc < len(code); pc += 1 + Op(code[pc]).PushSize() {
		count++
	}
	p := &program{
		instrs:  make([]instr, 0, count),
		jumpIdx: make([]int32, len(code)),
		codeLen: uint64(len(code)),
	}
	for i := range p.jumpIdx {
		p.jumpIdx[i] = -1
	}
	for pc := 0; pc < len(code); {
		op := Op(code[pc])
		if op == JUMPDEST {
			p.jumpIdx[pc] = int32(len(p.instrs))
		}
		in := plainInstr(op, uint32(pc))
		if op.IsPush() {
			n := op.PushSize()
			var buf [32]byte
			copy(buf[:n], code[min(pc+1, len(code)):min(pc+1+n, len(code))])
			in.imm = u256.FromBytes(buf[:n])
			pc += 1 + n
		} else {
			pc++
		}
		p.instrs = append(p.instrs, in)
	}
	return p
}

// plainInstr folds one source instruction's static checks into an instr.
func plainInstr(op Op, pc uint32) instr {
	in := instr{pc: pc, op: op}
	switch {
	case !op.Defined() || op == INVALID:
		in.kind = kindInvalid
		return in
	case op == PUSH0 || op.IsPush():
		in.kind = kindPush
	case op.IsDup():
		in.kind = kindDup
		in.n = uint8(op-DUP1) + 1
	case op.IsSwap():
		in.kind = kindSwap
		in.n = uint8(op-SWAP1) + 1
	case op.IsLog():
		in.kind = kindLog
		in.n = uint8(op - LOG0)
	default:
		in.kind = uint16(op)
	}
	pops, pushes := stackReq(op)
	in.need = uint16(pops)
	in.peak = int16(pushes - pops)
	in.gas = uint16(constGas(op))
	return in
}

// progCacheCap bounds the global decode cache. At ~2k distinct bytecodes
// per generated landscape shard this comfortably holds a working set; on
// overflow an arbitrary eighth is evicted (the cache is a pure
// memoization, so eviction only costs a re-decode).
const progCacheCap = 4096

var progCache = struct {
	mu           sync.Mutex
	m            map[etypes.Hash]*program
	hits, misses uint64
}{m: make(map[etypes.Hash]*program)}

// programFor returns the decoded program for code, cached per code hash.
// A zero hash (a StateDB that does not track code hashes, or init code
// that has no account yet) skips the cache entirely.
func programFor(hash etypes.Hash, code []byte) *program {
	if len(code) == 0 {
		return nil
	}
	if hash == (etypes.Hash{}) {
		return decode(code)
	}
	progCache.mu.Lock()
	if p, ok := progCache.m[hash]; ok && p.codeLen == uint64(len(code)) {
		progCache.hits++
		progCache.mu.Unlock()
		return p
	}
	progCache.misses++
	progCache.mu.Unlock()

	p := decode(code)

	progCache.mu.Lock()
	if len(progCache.m) >= progCacheCap {
		drop := progCacheCap / 8
		for k := range progCache.m {
			delete(progCache.m, k)
			if drop--; drop == 0 {
				break
			}
		}
	}
	progCache.m[hash] = p
	progCache.mu.Unlock()
	return p
}

// DecodeCacheStats reports hit/miss counters of the global program cache.
func DecodeCacheStats() (hits, misses uint64, entries int) {
	progCache.mu.Lock()
	defer progCache.mu.Unlock()
	return progCache.hits, progCache.misses, len(progCache.m)
}

// ResetDecodeCache empties the global program cache (tests, ablations).
func ResetDecodeCache() {
	progCache.mu.Lock()
	defer progCache.mu.Unlock()
	progCache.m = make(map[etypes.Hash]*program)
	progCache.hits, progCache.misses = 0, 0
}
