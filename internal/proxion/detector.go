// Package proxion implements the paper's contribution: an automated
// cross-contract analyzer that identifies proxy smart contracts — including
// hidden ones without source code or past transactions — locates their
// logic contracts across blockchain history, and detects function and
// storage collisions between proxy/logic pairs.
//
// Detection is the two-step pipeline of Section 4: a cheap disassembly
// filter rejects contracts without a DELEGATECALL opcode, then EVM emulation
// with carefully crafted call data checks whether the fallback actually
// forwards the received call data through a delegate call.
package proxion

import (
	"bytes"
	"encoding/binary"

	"repro/internal/chain"
	"repro/internal/disasm"
	"repro/internal/etypes"
	"repro/internal/evm"
	"repro/internal/keccak"
	"repro/internal/u256"
)

// TargetSource says where a proxy keeps its logic contract's address.
type TargetSource int

// Target sources.
const (
	TargetUnknown TargetSource = iota
	// TargetHardcoded means the address is fixed in the bytecode
	// (minimal/clone proxies).
	TargetHardcoded
	// TargetStorage means the address is read from a storage slot
	// (upgradeable proxies).
	TargetStorage
)

// String returns a short human-readable name.
func (t TargetSource) String() string {
	switch t {
	case TargetHardcoded:
		return "hardcoded"
	case TargetStorage:
		return "storage"
	default:
		return "unknown"
	}
}

// Standard is the recognized proxy design standard (Table 4).
type Standard int

// Proxy standards, per the paper's Table 4 categories.
const (
	StandardNone Standard = iota
	StandardEIP1167
	StandardEIP1822
	StandardEIP1967
	StandardOther
)

// String returns the standard's conventional name.
func (s Standard) String() string {
	switch s {
	case StandardEIP1167:
		return "EIP-1167"
	case StandardEIP1822:
		return "EIP-1822"
	case StandardEIP1967:
		return "EIP-1967"
	case StandardOther:
		return "Others"
	case StandardEIP2535:
		return "EIP-2535"
	default:
		return "none"
	}
}

// Well-known implementation slots.
var (
	// SlotEIP1967 = keccak256("eip1967.proxy.implementation") - 1.
	SlotEIP1967 = etypes.HashFromWord(
		u256.FromBytes32(keccak.Sum256([]byte("eip1967.proxy.implementation"))).Sub(u256.One()))
	// SlotEIP1822 = keccak256("PROXIABLE").
	SlotEIP1822 = etypes.Keccak([]byte("PROXIABLE"))
	// SlotEIP1967Beacon = keccak256("eip1967.proxy.beacon") - 1: where a
	// beacon proxy keeps the beacon address. The implementation itself
	// lives in the beacon's storage, so the proxy's own slots never change
	// across upgrades.
	SlotEIP1967Beacon = etypes.HashFromWord(
		u256.FromBytes32(keccak.Sum256([]byte("eip1967.proxy.beacon"))).Sub(u256.One()))
)

// Report is the outcome of checking one contract.
type Report struct {
	Address etypes.Address
	// IsProxy is the paper's definition: the fallback forwards received
	// call data to another contract via DELEGATECALL.
	IsProxy bool
	// Logic is the current logic contract (when IsProxy).
	Logic etypes.Address
	// Target says whether the logic address is hard-coded or in storage.
	Target TargetSource
	// ImplSlot is the storage slot holding the logic address (when
	// Target == TargetStorage).
	ImplSlot etypes.Hash
	// Standard classifies the proxy design (Table 4).
	Standard Standard
	// HasDelegateCall is the step-1 disassembly filter result.
	HasDelegateCall bool
	// EmulationErr is the terminal EVM error, if emulation failed before a
	// verdict (the paper's ~1.2–4.9% runtime-error cases).
	EmulationErr error
	// Unresolved marks a contract whose chain reads terminally failed (the
	// resilient client exhausted its retry budget or the circuit breaker
	// rejected the read). The contract stays in every total but its verdict
	// — or, when set after detection succeeded, its collision/history
	// analysis — could not be computed; ResolveErr carries the failure.
	Unresolved bool
	// ResolveErr is the terminal read failure behind Unresolved.
	ResolveErr error
	// Reason is a one-line human-readable justification of the verdict.
	Reason string
}

// unresolvedReport is the graceful-degradation outcome for a contract whose
// reads exhausted the resilient client's retry budget.
func unresolvedReport(addr etypes.Address, re *chain.ReadError) Report {
	return Report{
		Address:    addr,
		Unresolved: true,
		ResolveErr: re,
		Reason:     "unresolved: " + re.Error(),
	}
}

// markUnresolved degrades an already-computed report whose downstream
// analysis (pair collisions, history recovery) terminally failed.
func markUnresolved(rep *Report, re *chain.ReadError) {
	rep.Unresolved = true
	if rep.ResolveErr == nil {
		rep.ResolveErr = re
	}
}

// Detector runs the Proxion pipeline against a chain snapshot, reached
// through the chain.Reader node surface: the in-memory chain directly, or
// the faultchain resilient client when the node can fail.
type Detector struct {
	chain chain.Reader
	// emulationGas bounds each emulation run.
	emulationGas uint64
	// selCache memoizes dispatcher-selector extraction by bytecode hash,
	// exploiting the heavy duplication of deployed contracts (Figure 5).
	selCache *selectorCache
	// accessCache memoizes storage-access extraction by bytecode hash.
	accessCache *accessCache
	// viewCache memoizes per-bytecode selector views for pair analysis.
	viewCache *viewCache
	// verdicts memoizes the emulation verdict per unique runtime bytecode
	// — the streaming engine's biggest throughput lever, since 98.7% of
	// deployed contracts are duplicates (Table 3 / Figure 5).
	verdicts *verdictCache
}

// NewDetector creates a detector over the given node surface.
func NewDetector(c chain.Reader) *Detector {
	return &Detector{
		chain:        c,
		emulationGas: 5_000_000,
		selCache:     newSelectorCache(),
		accessCache:  newAccessCache(),
		viewCache:    newViewCache(),
		verdicts:     newVerdictCache(),
	}
}

// Chain returns the node surface under analysis.
func (d *Detector) Chain() chain.Reader { return d.chain }

// emulationContext builds the block environment for emulation runs: the
// latest block's values, per Section 4.2 ("all alive contracts are supposed
// to be executable at any block's numbers"), with the chain id taken from
// the network under analysis so the same detector works on any EVM chain
// (Section 8.2).
func (d *Detector) emulationContext() evm.BlockContext {
	ctx := evm.DefaultBlockContext()
	head := d.chain.LatestHeader()
	ctx.Number = head.Number
	ctx.Time = head.Time
	ctx.ChainID = u256.FromUint64(d.chain.Config().ChainID)
	ctx.BlockHash = func(n uint64) etypes.Hash {
		h, err := d.chain.HeaderByNumber(n)
		if err != nil {
			return etypes.Hash{}
		}
		return h.Hash
	}
	return ctx
}

// CraftCallData builds call data whose 4-byte selector differs from every
// PUSH4 immediate in the code (Section 4.2): since compilers emit function
// signatures after PUSH4 opcodes, avoiding all PUSH4 values guarantees the
// crafted selector matches no function and execution reaches the fallback.
// The remainder is a recognizable 32-byte probe payload so forwarding can
// be verified byte-for-byte.
func CraftCallData(addr etypes.Address, code []byte) []byte {
	avoid := make(map[[4]byte]struct{})
	for _, sel := range disasm.Push4Candidates(code) {
		avoid[sel] = struct{}{}
	}
	var sel [4]byte
	for try := 0; ; try++ {
		seed := make([]byte, 0, 28)
		seed = append(seed, addr[:]...)
		var n [8]byte
		binary.BigEndian.PutUint64(n[:], uint64(try))
		seed = append(seed, n[:]...)
		h := keccak.Sum256(seed)
		copy(sel[:], h[:4])
		if _, clash := avoid[sel]; !clash {
			break
		}
	}
	payload := keccak.Sum256(append([]byte("proxion-probe"), addr[:]...))
	out := make([]byte, 0, 4+32)
	out = append(out, sel[:]...)
	out = append(out, payload[:]...)
	return out
}

// emulationTracer watches for a DELEGATECALL initiated by the contract
// under test that forwards the probe call data.
type emulationTracer struct {
	under etypes.Address
	probe []byte
	state evm.StateDB

	// sloadedValues maps observed SLOAD results back to the slot they came
	// from — how the detector learns the implementation slot.
	sloadedValues map[u256.Int]etypes.Hash

	// readSlots records, in first-read order, every storage slot loaded in
	// the contract's own context before the probe was forwarded. The
	// verdict of an emulation can only depend on the contract's per-address
	// state through these slots, which is what lets the bytecode-dedup
	// cache transfer verdicts between identical contracts safely.
	readSlots []etypes.Hash
	readSeen  map[etypes.Hash]struct{}

	forwarded bool
	logic     etypes.Address
	fromSlot  etypes.Hash
	slotKnown bool
}

var _ evm.Tracer = (*emulationTracer)(nil)

func (t *emulationTracer) CaptureStep(f *evm.Frame, pc uint64, op evm.Op) {
	if op != evm.SLOAD || f.Address() != t.under {
		return
	}
	key := etypes.HashFromWord(f.Stack().Peek(0))
	if !t.forwarded {
		if t.readSeen == nil {
			t.readSeen = make(map[etypes.Hash]struct{})
		}
		if _, dup := t.readSeen[key]; !dup {
			t.readSeen[key] = struct{}{}
			t.readSlots = append(t.readSlots, key)
		}
	}
	val := t.state.GetState(t.under, key).Word()
	if t.sloadedValues == nil {
		t.sloadedValues = make(map[u256.Int]etypes.Hash)
	}
	t.sloadedValues[val] = key
}

func (t *emulationTracer) CaptureEnter(kind evm.CallKind, from, to etypes.Address, input []byte, _ u256.Int) {
	if t.forwarded || kind != evm.CallKindDelegateCall || from != t.under {
		return
	}
	// The paper's proxy definition: the *received* call data is forwarded.
	if !bytes.Equal(input, t.probe) {
		return
	}
	t.forwarded = true
	t.logic = to
	if slot, ok := t.sloadedValues[to.Word()]; ok {
		t.fromSlot = slot
		t.slotKnown = true
	}
}

func (t *emulationTracer) CaptureExit([]byte, error) {}

// probeSender is the synthetic externally owned account emulation calls from.
var probeSender = etypes.MustAddress("0x00000000000000000000000000000000c0ffee00")

// Check runs the full two-step pipeline on one contract. When the chain
// reader is a resilient client, a terminal read failure degrades to an
// Unresolved report instead of propagating (the Reader error contract).
func (d *Detector) Check(addr etypes.Address) Report {
	var rep Report
	if re := chain.CaptureReadError(func() { rep = d.check(addr) }); re != nil {
		return unresolvedReport(addr, re)
	}
	return rep
}

func (d *Detector) check(addr etypes.Address) Report {
	code := d.chain.Code(addr)
	if len(code) == 0 {
		return Report{Address: addr, Reason: "no code at address"}
	}
	return d.checkWithCallData(addr, CraftCallData(addr, code))
}

// CheckWithCallData runs the pipeline with caller-supplied probe call data.
// Production detection always uses CraftCallData; the selector-choice
// ablation passes deliberately colliding call data to quantify how much the
// PUSH4-avoidance matters.
func (d *Detector) CheckWithCallData(addr etypes.Address, probe []byte) Report {
	var rep Report
	if re := chain.CaptureReadError(func() { rep = d.checkWithCallData(addr, probe) }); re != nil {
		return unresolvedReport(addr, re)
	}
	return rep
}

func (d *Detector) checkWithCallData(addr etypes.Address, probe []byte) Report {
	code := d.chain.Code(addr)
	if len(code) == 0 {
		return Report{Address: addr, Reason: "no code at address"}
	}

	// Step 1 (Section 4.1): contracts without a DELEGATECALL opcode are
	// not proxies; skip emulation entirely.
	if !disasm.ContainsOp(code, evm.DELEGATECALL) {
		return Report{Address: addr, Reason: "bytecode contains no DELEGATECALL opcode"}
	}

	// Step 2 (Section 4.2): emulate with the probe call data and observe
	// whether it is forwarded through a DELEGATECALL.
	rep := d.emulateProbe(addr, code, probe).rep
	if rep.IsProxy {
		rep.Standard = classify(code, rep)
	}
	return rep
}

// probeOutcome is the raw result of one emulation probe, before standard
// classification: the would-be report plus the storage slots the fallback
// read before forwarding — the guard set the bytecode-dedup cache
// fingerprints per-address state with.
type probeOutcome struct {
	rep        Report
	guardSlots []etypes.Hash
}

// emulateProbe performs the Section 4.2 emulation step on a contract whose
// code already passed the disassembly filter. The returned report carries
// no Standard; classification is a separate (cached) pipeline stage.
func (d *Detector) emulateProbe(addr etypes.Address, code, probe []byte) probeOutcome {
	rep := Report{Address: addr, HasDelegateCall: true}
	overlay := newOverlay(d.chain)
	tracer := &emulationTracer{under: addr, probe: probe, state: overlay}
	e := evm.New(overlay, evm.Config{
		Block:     d.emulationContext(),
		Tx:        evm.TxContext{Origin: probeSender},
		Tracer:    tracer,
		Lenient:   true,
		StepLimit: 1 << 18,
	})
	res := e.Call(probeSender, addr, probe, d.emulationGas, u256.Zero())

	if !tracer.forwarded {
		// A revert bubbled from a logic contract is normal; any terminal
		// error without observed forwarding means "not a proxy", with the
		// error kept for the runtime-error statistics.
		if res.Err != nil && res.Err != evm.ErrRevert {
			rep.EmulationErr = res.Err
			rep.Reason = "emulation aborted: " + res.Err.Error()
		} else {
			rep.Reason = "emulation completed without forwarding the probe call data"
		}
		return probeOutcome{rep: rep, guardSlots: tracer.readSlots}
	}

	rep.IsProxy = true
	rep.Logic = tracer.logic
	rep.Reason = "fallback forwarded the probe call data via DELEGATECALL to " + tracer.logic.Hex()

	// Locate the logic address (Section 4.3): storage slot if we saw it
	// come from an SLOAD, otherwise hard-coded in the bytecode.
	switch {
	case tracer.slotKnown:
		rep.Target = TargetStorage
		rep.ImplSlot = tracer.fromSlot
	default:
		rep.Target = TargetHardcoded
	}

	// The implementation slot itself is excluded from the guard set: its
	// value is exactly what duplicates legitimately differ in, and the
	// cache re-resolves it per address.
	guard := tracer.readSlots
	if rep.Target == TargetStorage {
		guard = nil
		for _, s := range tracer.readSlots {
			if s != rep.ImplSlot {
				guard = append(guard, s)
			}
		}
	}
	return probeOutcome{rep: rep, guardSlots: guard}
}

// classify maps a proxy report onto the design standards of Table 4.
func classify(code []byte, rep Report) Standard {
	if _, ok := disasm.MinimalProxyTarget(code); ok {
		return StandardEIP1167
	}
	if rep.Target == TargetStorage {
		switch rep.ImplSlot {
		case SlotEIP1822:
			return StandardEIP1822
		case SlotEIP1967:
			return StandardEIP1967
		}
	}
	return StandardOther
}
