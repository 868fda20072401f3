package bench

import (
	"fmt"
	"runtime"

	"repro/internal/asm"
	"repro/internal/chain"
	"repro/internal/dataset"
	"repro/internal/etypes"
	"repro/internal/evm"
	"repro/internal/faultchain"
	"repro/internal/gen"
	"repro/internal/keccak"
	"repro/internal/proxion"
	"repro/internal/static"
	"repro/internal/u256"
)

// Profile selects the suite's scale/sample trade-off.
type Profile string

const (
	// Quick is the PR-gate profile: small corpora, few samples, finishes in
	// well under a minute on a laptop or CI runner.
	Quick Profile = "quick"
	// Full is the nightly profile: the bench_test.go-scale corpora with
	// enough samples for stable percentiles.
	Full Profile = "full"
)

// CalibrationName is the pure-CPU reference workload every run includes;
// the comparator divides all other timings by its median to cancel
// machine-speed differences between baseline and gate machines.
const CalibrationName = "calibration/keccak256"

// Instance is one set-up workload, ready to measure.
type Instance struct {
	// Op runs the workload once. Every call must redo the full measured
	// work (e.g. a fresh detector per call, so no verdict cache survives
	// between ops).
	Op func()
	// Counters reports the deterministic outputs of the most recent Op
	// call: equal (seed, scale) must yield equal maps on any machine and
	// any scheduling. Nil when the workload has no counters.
	Counters func() map[string]int64
}

// Workload is one named, seeded, fixed-scale measurement.
type Workload struct {
	Name string
	// Desc is a one-line description for -list output and reports.
	Desc string
	// Scale is the workload's input-size knob (contracts, loop iterations).
	Scale int
	// Batch is how many ops each timing sample aggregates; >1 smooths
	// microsecond-scale workloads.
	Batch int
	// Setup builds the instance: generates corpora, compiles bytecode,
	// allocates state. Setup time is never measured.
	Setup func(seed int64, scale int) Instance
}

// Suite returns the workload catalogue for a profile. Workload names are
// stable across profiles (only scales differ) so quick runs gate against a
// quick baseline and full runs against a full one.
func Suite(p Profile) []Workload {
	type dims struct{ pipeline, corpus, evmLoop int }
	d := dims{pipeline: 1200, corpus: 48, evmLoop: 8_000}
	if p == Full {
		d = dims{pipeline: 4000, corpus: 96, evmLoop: 50_000}
	}
	return []Workload{
		{
			Name:  CalibrationName,
			Desc:  "pure-CPU reference: Keccak-256 over a fixed 4 KiB buffer",
			Scale: 4096,
			Batch: 256,
			Setup: setupCalibration,
		},
		{
			Name:  "detector/check-mixed",
			Desc:  "single-contract detection (Section 4) over the labeled mixed proxy corpus",
			Scale: d.corpus,
			Batch: 1,
			Setup: setupDetectorCheck,
		},
		{
			Name:  "pipeline/stream-1w",
			Desc:  "end-to-end streaming pipeline, every stage at 1 worker",
			Scale: d.pipeline,
			Batch: 1,
			Setup: setupPipeline(workerPlan{filter: 1, probe: 1, classify: 1, pair: 1}),
		},
		{
			Name:  "pipeline/stream-2w",
			Desc:  "end-to-end streaming pipeline, every stage at 2 workers",
			Scale: d.pipeline,
			Batch: 1,
			Setup: setupPipeline(workerPlan{filter: 2, probe: 2, classify: 2, pair: 2}),
		},
		{
			Name:  "pipeline/stream-maxw",
			Desc:  "end-to-end streaming pipeline at the production GOMAXPROCS-derived pools",
			Scale: d.pipeline,
			Batch: 1,
			Setup: setupPipeline(workerPlan{}),
		},
		{
			Name:  "pipeline/stream-maxw-nocache",
			Desc:  "same pipeline with the bytecode-dedup verdict cache disabled (ablation)",
			Scale: d.pipeline,
			Batch: 1,
			Setup: setupPipeline(workerPlan{disableDedup: true}),
		},
		{
			Name:  "pipeline/stream-resilient",
			Desc:  "stream-maxw with every node read through the fault-free resilient client (overhead check)",
			Scale: d.pipeline,
			Batch: 1,
			Setup: setupPipeline(workerPlan{resilient: true}),
		},
		{
			Name:  "static/summary",
			Desc:  "emulation-free static summary (CFG, selectors, slots, delegate provenance) over the labeled corpus",
			Scale: d.corpus,
			Batch: 1,
			Setup: setupStaticSummary,
		},
		{
			Name:  "collision/storage-slicing",
			Desc:  "storage-access extraction + collision slicing (Section 5) over every generated pair",
			Scale: d.corpus,
			Batch: 1,
			Setup: setupStorageSlicing,
		},
		{
			Name:  "evm/interp-loop",
			Desc:  "raw EVM interpretation of an arithmetic/MSTORE loop (ops/sec floor)",
			Scale: d.evmLoop,
			Batch: 4,
			Setup: setupEVMLoop(evm.InterpFast),
		},
		{
			Name:  "evm/interp-reference",
			Desc:  "the same loop under the retained reference interpreter (fast-path ablation)",
			Scale: d.evmLoop,
			Batch: 4,
			Setup: setupEVMLoop(evm.InterpReference),
		},
		{
			Name:  "evm/interp-fused",
			Desc:  "selector-dispatcher chain exercising the fused superinstructions (dispatch, dup-branch)",
			Scale: d.evmLoop / 4,
			Batch: 4,
			Setup: setupEVMFused,
		},
	}
}

// FindWorkload returns the named workload from a profile's suite.
func FindWorkload(p Profile, name string) (Workload, bool) {
	for _, w := range Suite(p) {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// setupCalibration hashes a seed-filled fixed-size buffer. No corpus, no
// allocation in the op: the timing is (nearly) pure CPU, which is what the
// comparator's machine-speed normalization needs.
func setupCalibration(seed int64, scale int) Instance {
	buf := make([]byte, scale)
	for i := range buf {
		buf[i] = byte(int64(i) * (seed + 1))
	}
	var sink byte
	return Instance{
		Op: func() {
			sum := keccak.Sum256(buf)
			sink ^= sum[0]
		},
		Counters: func() map[string]int64 {
			return map[string]int64{"bytes_hashed": int64(len(buf))}
		},
	}
}

// setupDetectorCheck runs Detector.Check over every contract of a gen
// corpus — the paper's per-contract detection latency (Section 6.1), on a
// mix of every proxy shape plus the adversarial negatives. A fresh
// detector per op keeps each call on the cold, full-emulation path.
func setupDetectorCheck(seed int64, scale int) Instance {
	c := gen.Generate(gen.Config{Seed: seed, Contracts: scale})
	var last map[string]int64
	return Instance{
		Op: func() {
			det := proxion.NewDetector(c.Chain)
			var proxies, checked int64
			for _, l := range c.Labels {
				if det.Check(l.Address).IsProxy {
					proxies++
				}
				checked++
			}
			last = map[string]int64{
				"contracts_checked": checked,
				"proxies_detected":  proxies,
			}
		},
		Counters: func() map[string]int64 { return last },
	}
}

// workerPlan pins the streaming engine's stage pools for one workload.
type workerPlan struct {
	filter, probe, classify, pair int
	disableDedup                  bool
	// resilient routes every node read through the faultchain client (no
	// fault injector), measuring the resilience layer's fault-free overhead
	// against the stream-maxw workload.
	resilient bool
}

// setupPipeline runs the whole-landscape streaming analysis
// (AnalyzeAllWithOptions) over a dataset landscape — the clone-heavy
// population whose duplicate skew the dedup cache feeds on. Counters come
// from the pipeline's deterministic snapshot export.
func setupPipeline(plan workerPlan) func(seed int64, scale int) Instance {
	return func(seed int64, scale int) Instance {
		pop := dataset.Generate(dataset.Config{Seed: seed, Contracts: scale})
		opts := proxion.AnalyzeOptions{
			FilterWorkers:   plan.filter,
			ProbeWorkers:    plan.probe,
			ClassifyWorkers: plan.classify,
			PairWorkers:     plan.pair,
			DisableDedup:    plan.disableDedup,
		}
		var reader chain.Reader = pop.Chain
		if plan.resilient {
			client, _ := faultchain.NewResilientReader(pop.Chain, nil, faultchain.Options{})
			reader = client
		}
		var last map[string]int64
		return Instance{
			Op: func() {
				det := proxion.NewDetector(reader)
				res := det.AnalyzeAllWithOptions(pop.Registry, opts)
				last = res.Stats.Counters()
			},
			Counters: func() map[string]int64 { return last },
		}
	}
}

// setupStaticSummary runs the static analyzer over every contract of a
// gen corpus — the per-contract cost of the emulation-free fast path
// (CFG + bounded abstract-stack dataflow), isolated from detection.
func setupStaticSummary(seed int64, scale int) Instance {
	c := gen.Generate(gen.Config{Seed: seed, Contracts: scale})
	var last map[string]int64
	return Instance{
		Op: func() {
			var delegates, selectors, slotReads int64
			for _, l := range c.Labels {
				sum := static.Analyze(l.Code)
				delegates += int64(len(sum.Delegates))
				selectors += int64(len(sum.Selectors))
				slotReads += int64(len(sum.SlotReads))
			}
			last = map[string]int64{
				"contracts_summarized": int64(len(c.Labels)),
				"delegate_sites":       delegates,
				"selectors_recovered":  selectors,
				"const_slot_reads":     slotReads,
			}
		},
		Counters: func() map[string]int64 { return last },
	}
}

// setupStorageSlicing extracts storage accesses and slices collisions for
// every proxy/logic pair of a gen corpus — the Section 5 analysis isolated
// from detection.
func setupStorageSlicing(seed int64, scale int) Instance {
	c := gen.Generate(gen.Config{Seed: seed, Contracts: scale})
	type pair struct{ proxy, logic []byte }
	var pairs []pair
	for _, l := range c.Labels {
		if !l.IsProxy || l.Logic.IsZero() {
			continue
		}
		logic, ok := c.ByAddr[l.Logic]
		if !ok || len(logic.Code) == 0 {
			continue
		}
		pairs = append(pairs, pair{proxy: l.Code, logic: logic.Code})
	}
	var last map[string]int64
	return Instance{
		Op: func() {
			var collisions int64
			for _, p := range pairs {
				pAcc := proxion.ExtractStorageAccesses(p.proxy)
				lAcc := proxion.ExtractStorageAccesses(p.logic)
				collisions += int64(len(proxion.StorageCollisions(pAcc, lAcc)))
			}
			last = map[string]int64{
				"pairs_sliced":       int64(len(pairs)),
				"storage_collisions": collisions,
			}
		},
		Counters: func() map[string]int64 { return last },
	}
}

// setupEVMLoop interprets a tight countdown loop (10 opcodes per
// iteration: arithmetic, MSTORE, conditional jump) — a floor on raw
// interpreter speed that isolates the EVM from detection logic. The step
// count is derived from the loop structure, so it is deterministic by
// construction; a tracer is deliberately not installed, keeping the timing
// free of per-step callback overhead. The interpreter mode is a parameter:
// interp-loop measures the pre-decoded fast path, interp-reference the
// retained byte-at-a-time loop, and their ratio is the fast path's uplift
// as a gated quantity.
func setupEVMLoop(mode evm.InterpMode) func(seed int64, scale int) Instance {
	return func(seed int64, scale int) Instance {
		p := &asm.Program{}
		p.PushUint(uint64(scale)) //                 [n]
		p.Label("loop")           // JUMPDEST        [n]
		p.Op(evm.DUP1)            //                 [n, n]
		p.PushUint(0)             //                 [n, n, 0]
		p.Op(evm.MSTORE)          // mem[0] = n      [n]
		p.PushUint(1)             //                 [n, 1]
		p.Op(evm.SWAP1)           //                 [1, n]
		p.Op(evm.SUB)             //                 [n-1]
		p.Op(evm.DUP1)            //                 [n-1, n-1]
		p.JumpI("loop")           // PUSH2+JUMPI     [n-1]
		p.Op(evm.STOP)
		code := p.MustAssemble()

		// 1 PUSH prologue, then per iteration: JUMPDEST, DUP1, PUSH1, MSTORE,
		// PUSH1, SWAP1, SUB, DUP1, PUSH2, JUMPI; the last iteration falls
		// through to STOP.
		steps := int64(1 + 10*scale + 1)
		return evmCallInstance(mode, code, nil, steps, map[string]int64{
			"evm_steps":       steps,
			"loop_iterations": int64(scale),
		})
	}
}

// setupEVMFused interprets a dispatcher-shaped loop: each iteration walks a
// chain of 16 Solidity-style selector comparisons (DUP1; PUSH4 sel; EQ;
// PUSH2 dest; JUMPI — the fast path fuses the latter four into one
// kindDispatch superinstruction) that all miss, then branches back through
// a fused DUP1; PUSH2; JUMPI. This is the superinstruction-dense profile
// real proxy fallbacks present to the detector's probes.
func setupEVMFused(seed int64, scale int) Instance {
	const arms = 16
	p := &asm.Program{}
	p.PushUint(uint64(scale))   //                  [n]
	p.Label("loop")             // JUMPDEST         [n]
	p.PushUint(0xdeadbeef)      //                  [n, sel]
	for i := 0; i < arms; i++ { //                  (all compares miss)
		p.Op(evm.DUP1)
		p.PushBytes([]byte{0xaa, 0xbb, 0xcc, byte(i)}) // PUSH4
		p.Op(evm.EQ)
		p.JumpI("dead")
	}
	p.Op(evm.POP)   //                               [n]
	p.PushUint(1)   //                               [n, 1]
	p.Op(evm.SWAP1) //                               [1, n]
	p.Op(evm.SUB)   //                               [n-1]
	p.Op(evm.DUP1)  //                               [n-1, n-1]
	p.JumpI("loop") // fused DUP1+PUSH2+JUMPI        [n-1]
	p.Op(evm.STOP)
	p.Label("dead")
	p.Op(evm.INVALID)
	code := p.MustAssemble()

	// 1 prologue push, then per iteration: JUMPDEST, PUSH4 const, 5 source
	// instructions per arm, POP, PUSH1, SWAP1, SUB, DUP1, PUSH2, JUMPI; the
	// last iteration falls through to STOP.
	steps := int64(1 + (2+5*arms+7)*scale + 1)
	return evmCallInstance(evm.InterpFast, code, nil, steps, map[string]int64{
		"evm_steps":       steps,
		"dispatch_arms":   arms,
		"loop_iterations": int64(scale),
	})
}

// evmCallInstance builds the shared Instance shape of the raw-interpreter
// workloads: one Call per op against a fixed contract, counters reporting
// the structurally-derived step count (or -1 if the run errored, so a
// broken loop surfaces as counter drift instead of a fast timing).
func evmCallInstance(mode evm.InterpMode, code, input []byte, steps int64, counters map[string]int64) Instance {
	st := chain.New()
	st.AdvanceTo(1)
	var addr etypes.Address
	addr[19] = 0xeb
	st.InstallContract(addr, code)
	var caller etypes.Address
	caller[19] = 0xca

	var lastErr error
	return Instance{
		Op: func() {
			e := evm.New(st, evm.Config{
				Block:     evm.DefaultBlockContext(),
				Tx:        evm.TxContext{Origin: caller},
				Lenient:   true,
				StepLimit: uint64(steps) + 16,
				Interp:    mode,
			})
			res := e.Call(caller, addr, input, 1<<30, u256.Zero())
			lastErr = res.Err
		},
		Counters: func() map[string]int64 {
			if lastErr != nil {
				// Surface a broken loop as an impossible counter value
				// rather than silently benchmarking an early abort.
				return map[string]int64{"evm_steps": -1}
			}
			return counters
		},
	}
}

// HostInfo captures the measuring environment.
func HostInfo() Host {
	return Host{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// ValidProfile normalizes a profile string.
func ValidProfile(s string) (Profile, error) {
	switch Profile(s) {
	case Quick:
		return Quick, nil
	case Full:
		return Full, nil
	}
	return "", fmt.Errorf("bench: unknown profile %q (want %q or %q)", s, Quick, Full)
}
