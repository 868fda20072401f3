package main

import (
	"encoding/binary"
	"hash/fnv"
	"time"

	"repro/internal/chain"
	"repro/internal/dataset"
	"repro/internal/etypes"
	"repro/internal/gen"
	"repro/internal/proxion"
)

// corpus is one workload's generated input: a chain, its verified-source
// registry and the addresses to analyze, in source order.
type corpus struct {
	reader  chain.Reader
	sources proxion.SourceProvider
	addrs   []etypes.Address
	genS    float64 // generation time, excluded from every timed figure
}

// landscapeCorpus is a paper-shaped population: ~54% proxies, ~89% of
// them EIP-1167 clones, so most probes are verdict-cache hits. Built with
// the batch generator, which finalizes every contract before returning.
func landscapeCorpus(seed int64, contracts int) *corpus {
	t := time.Now()
	pop := dataset.Generate(dataset.Config{Seed: seed, Contracts: contracts})
	return &corpus{reader: pop.Chain, sources: pop.Registry, addrs: pop.Chain.Contracts(), genS: time.Since(t).Seconds()}
}

// distinctCorpus covers every proxy shape plus adversarial negatives with
// mostly distinct bytecodes, so most probes miss the verdict cache.
func distinctCorpus(seed int64, units int) *corpus {
	t := time.Now()
	c := gen.Generate(gen.Config{Seed: seed, Contracts: units})
	return &corpus{reader: c.Chain, sources: c.Registry, addrs: c.Chain.Contracts(), genS: time.Since(t).Seconds()}
}

// readCode reads the runtime bytecode and code hash of every address,
// inside chain.CaptureReadError as the Reader contract requires (the
// in-memory corpus chains never fail a read).
func readCode(c *corpus) (codes [][]byte, hashes []etypes.Hash, err error) {
	if re := chain.CaptureReadError(func() {
		for _, a := range c.addrs {
			codes = append(codes, c.reader.Code(a))
			hashes = append(hashes, c.reader.CodeHash(a))
		}
	}); re != nil {
		return nil, nil, re
	}
	return codes, hashes, nil
}

// verdict is the part of an analysis result the output check compares:
// address, proxy verdict, logic, standard and collision counts.
type verdict struct {
	addr     etypes.Address
	isProxy  bool
	logic    etypes.Address
	standard proxion.Standard
	nFunc    int
	nStorage int
}

func verdictOf(it proxion.Item) verdict {
	v := verdict{addr: it.Report.Address, isProxy: it.Report.IsProxy, logic: it.Report.Logic, standard: it.Report.Standard}
	if it.Pair != nil {
		v.nFunc, v.nStorage = len(it.Pair.Functions), len(it.Pair.Storage)
	}
	return v
}

// reference is the expected output of one corpus, computed once outside
// timing by a single-worker run.
type reference struct {
	items  []verdict
	byAddr map[etypes.Address]int
	pairs  [][2]etypes.Address // detected proxy/logic pairs, in source order
}

func buildReference(c *corpus) *reference {
	ref := &reference{byAddr: make(map[etypes.Address]int, len(c.addrs))}
	sink := proxion.SinkFunc(func(it proxion.Item) {
		v := verdictOf(it)
		ref.byAddr[v.addr] = len(ref.items)
		ref.items = append(ref.items, v)
		if it.Pair != nil {
			ref.pairs = append(ref.pairs, [2]etypes.Address{it.Pair.Proxy, it.Pair.Logic})
		}
	})
	one := proxion.AnalyzeOptions{FilterWorkers: 1, ProbeWorkers: 1, ClassifyWorkers: 1, PairWorkers: 1}
	proxion.NewDetector(c.reader).AnalyzeStream(proxion.SliceSource(c.addrs), c.sources, sink, one)
	return ref
}

// digest folds every reference verdict into one number, reported with
// each result so two runs can be checked to have judged the same output.
func (r *reference) digest() uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range r.items {
		h.Write(v.addr[:])
		h.Write(v.logic[:])
		flag := byte(0)
		if v.isProxy {
			flag = 1
		}
		binary.BigEndian.PutUint64(b[:], uint64(v.standard)<<32|uint64(v.nFunc)<<16|uint64(v.nStorage))
		h.Write([]byte{flag})
		h.Write(b[:])
	}
	return h.Sum64()
}

// tamper corrupts the reference verdict of one address; the self-test
// uses it to prove that a wrong output fails the run.
func (r *reference) tamper(a etypes.Address) {
	i := r.byAddr[a]
	r.items[i].isProxy = !r.items[i].isProxy
}

// checkSink verifies a scan pass against the reference: each fed contract
// emitted exactly once, in source order, with the reference verdict. When
// emitNS is set it also records each item's emission time (ns after base).
type checkSink struct {
	ref    *reference
	n      int // contracts fed in this pass (a prefix of the corpus)
	next   int
	failed int64
	base   time.Time
	emitNS []int64
}

func (s *checkSink) Emit(it proxion.Item) {
	if s.emitNS != nil && it.Index >= 0 && it.Index < len(s.emitNS) {
		s.emitNS[it.Index] = int64(time.Since(s.base))
	}
	if it.Index != s.next || it.Index >= s.n || verdictOf(it) != s.ref.items[it.Index] {
		s.failed++
	}
	s.next++
}

// finish returns the pass's failure count, adding contracts never emitted.
func (s *checkSink) finish() int64 {
	if s.next < s.n {
		return s.failed + int64(s.n-s.next)
	}
	return s.failed
}
