package main

import (
	"fmt"
	"math"
	"path/filepath"
	"time"

	"repro/internal/etypes"
	"repro/internal/evm"
	"repro/internal/pipeline"
	"repro/internal/proxion"
)

// scanSpec fixes one scan workload: its corpus and its open-loop rates.
type scanSpec struct {
	name  string
	build func(seed int64, scale float64) *corpus
	// lowRate and highRate are the fixed arrival rates (contracts/s) of
	// the two latency points.
	lowRate, highRate float64
	// blockN is the block size of the latency summary.
	blockN int
}

var landscapeSpec = scanSpec{
	name:     "landscape-scan",
	build:    func(seed int64, s float64) *corpus { return landscapeCorpus(seed, int(50000*s)) },
	lowRate:  40000,
	highRate: 80000,
	blockN:   5000,
}

var distinctSpec = scanSpec{
	name:     "distinct-scan",
	build:    func(seed int64, s float64) *corpus { return distinctCorpus(seed, int(4000*s)) },
	lowRate:  4000,
	highRate: 6000,
	blockN:   1000,
}

// scanRun is the state shared by the phases of one scan workload run.
type scanRun struct {
	cfg  config
	spec scanSpec
	c    *corpus
	ref  *reference
	acc  account
}

// pass runs one AnalyzeStream over the first n contracts with a fresh
// Detector, as every user scan pays a cold verdict cache. src defaults to
// the corpus slice; tw, when set, installs the tracing wrappers.
func (r *scanRun) pass(n int, src proxion.AddressSource, sink *checkSink, tw *traceWiring) (*pipeline.Snapshot, time.Duration) {
	if src == nil {
		src = proxion.SliceSource(r.c.addrs[:n])
	}
	sink.ref, sink.n = r.ref, n
	reader, sources := r.c.reader, r.c.sources
	var out proxion.ReportSink = sink
	if tw != nil {
		reader, sources = tw.reader, tw.sources
		src = &tracedSource{inner: src, tr: tw.tr, parent: tw.scope.id.Load()}
		out = &tracedSink{inner: sink, tr: tw.tr, parent: tw.scope.id.Load()}
	}
	start := time.Now()
	snap := proxion.NewDetector(reader).AnalyzeStream(src, sources, out, proxion.AnalyzeOptions{})
	el := time.Since(start)
	r.acc.add(int64(n), sink.finish())
	return snap, el
}

// pacedSource releases contract i at start + i/rate: an open-loop arrival
// schedule. It records how late the feeder pulled and the largest backlog
// of due but not yet fed contracts.
//
// A contract's latency runs from its base time: its due time, or the
// moment the feeder woke if it was asleep when the contract fell due, so
// timer oversleep is charged to the generator's lateness and not to the
// program, while time the feeder spent blocked by the engine still counts.
type pacedSource struct {
	addrs      []etypes.Address
	i          int
	start      time.Time
	interval   float64 // ns between arrivals
	wake       time.Duration
	baseNS     []int64
	lateMax    time.Duration
	backlogMax int
}

func (p *pacedSource) Next() (etypes.Address, bool) {
	if p.i >= len(p.addrs) {
		return etypes.Address{}, false
	}
	due := time.Duration(float64(p.i) * p.interval)
	now := time.Since(p.start)
	if now < due {
		time.Sleep(due - now)
		p.wake = time.Since(p.start)
	} else {
		p.lateMax = max(p.lateMax, now-due)
		p.backlogMax = max(p.backlogMax, int(float64(now)/p.interval)-p.i)
	}
	p.baseNS[p.i] = int64(max(due, p.wake))
	a := p.addrs[p.i]
	p.i++
	return a, true
}

// openLoop is the outcome of feeding passes at a fixed rate.
type openLoop struct {
	latMS      [][]float64 // per pass, per contract: due time to emission
	lateMax    time.Duration
	backlogMax int
}

// openPass feeds the first n contracts at rate and records each one's
// latency from its due time to its emission.
func (r *scanRun) openPass(rate float64, n int, ol *openLoop) {
	src := &pacedSource{addrs: r.c.addrs[:n], interval: 1e9 / rate, baseNS: make([]int64, n)}
	sink := &checkSink{emitNS: make([]int64, n)}
	src.start = time.Now()
	sink.base = src.start
	r.pass(n, src, sink, nil)
	lat := make([]float64, n)
	for i, e := range sink.emitNS {
		lat[i] = float64(e-src.baseNS[i]) / 1e6
	}
	ol.latMS = append(ol.latMS, lat)
	ol.lateMax = max(ol.lateMax, src.lateMax)
	ol.backlogMax = max(ol.backlogMax, src.backlogMax)
}

// openPhase repeats full-corpus open-loop passes at rate for d (at least one).
func (r *scanRun) openPhase(rate float64, d time.Duration) *openLoop {
	ol := &openLoop{}
	for end := time.Now().Add(d); ; {
		r.openPass(rate, len(r.c.addrs), ol)
		if time.Now().After(end) {
			return ol
		}
	}
}

func runScan(cfg config, spec scanSpec) (*result, error) {
	c := spec.build(cfg.seed, cfg.scale)
	if len(c.addrs) == 0 {
		return nil, fmt.Errorf("%s: empty corpus", spec.name)
	}
	ref := buildReference(c)
	if cfg.tamper {
		ref.tamper(c.addrs[len(c.addrs)/2])
	}
	r := &scanRun{cfg: cfg, spec: spec, c: c, ref: ref}
	res := &result{}
	res.note("contracts", len(c.addrs))
	res.note("reference_digest", fmt.Sprintf("%016x", ref.digest()))

	// Set-up: a fresh Detector plus one untimed warm-up pass, five times.
	var setups []float64
	for i := 0; i < 5; i++ {
		_, el := r.pass(len(c.addrs), nil, &checkSink{}, nil)
		setups = append(setups, el.Seconds())
	}
	if !cfg.trace {
		res.set("setup_s", median(setups), "s")
	}
	res.note("setup_s_samples", setups)

	if cfg.trace {
		if err := r.traced(res); err != nil {
			return nil, err
		}
	} else {
		r.endToEnd(res)
	}
	res.Attempted, res.Failed = r.acc.attempted, r.acc.failed
	return res, nil
}

// endToEnd measures the scan's user-visible figures: closed-loop passes
// in rounds of 10% of the run (at least two), each round starting from a
// collected heap (settle) so the collections inside it fall at the same
// points on every run; they stay inside the timing. Each pass uses a
// fresh Detector.
//
// A scan keeps up with any arrival rate below its closed-loop throughput,
// so that throughput is also its sustained rate. A rate ladder of single
// corpus passes does not measure it: the engine's 4096-contract window
// absorbs much of a pass, and collection bursts decide which rungs pass.
func (r *scanRun) endToEnd(res *result) {
	n := len(r.c.addrs)
	var passes, peaks []float64
	var allocs uint64
	var busy time.Duration
	contracts := 0
	end := time.Now().Add(dur(r.cfg.seconds))
	for len(peaks) < 2 || time.Now().Before(end) {
		settle()
		hs := startHeapSampler(2 * time.Millisecond)
		m0 := mallocs()
		for stop := time.Now().Add(dur(0.1 * r.cfg.seconds)); ; {
			_, el := r.pass(n, nil, &checkSink{}, nil)
			passes = append(passes, float64(n)/el.Seconds())
			contracts += n
			busy += el
			if time.Now().After(stop) {
				break
			}
		}
		allocs += mallocs() - m0
		peaks = append(peaks, hs.Stop())
	}
	throughput := float64(contracts) / busy.Seconds()
	res.set("contracts_per_s", throughput, "1/s")
	res.set("sustained_rps", throughput, "1/s")
	res.set("allocs_per_contract", float64(allocs)/float64(contracts), "count")
	res.set("peak_heap_mib", median(peaks), "MiB")
	res.note("rounds", len(peaks))
	res.note("contracts_per_s_passes", len(passes))
	res.note("pass_rate_quartiles", []float64{quantile(passes, 0.25), quantile(passes, 0.5), quantile(passes, 0.75)})
	res.note("peak_heap_mib_rounds", peaks)
}

func dur(secs float64) time.Duration { return time.Duration(secs * float64(time.Second)) }

// traced runs closed-loop passes alternating untraced and traced wiring
// for 60% of the run, then untraced open-loop phases at the two fixed rates
// and the timed layer replays, and reports the per-layer figures.
func (r *scanRun) traced(res *result) error {
	tw := newTraceWiring(r.c)
	var plain, tracedRates []float64
	busy := make(map[string][]float64) // per stage, one value per traced pass
	var feedWait, sinkMS, readMS, readN, decodeHit, decodeMiss []float64
	var snap *pipeline.Snapshot
	for end := time.Now().Add(dur(0.6 * r.cfg.seconds)); len(tracedRates) == 0 || time.Now().Before(end); {
		h0, m0, _ := evm.DecodeCacheStats()
		_, el := r.pass(len(r.c.addrs), nil, &checkSink{}, nil)
		h1, m1, _ := evm.DecodeCacheStats()
		plain = append(plain, float64(len(r.c.addrs))/el.Seconds())
		decodeHit = append(decodeHit, float64(h1-h0)/math.Max(1, float64(h1-h0+m1-m0)))
		decodeMiss = append(decodeMiss, float64(m1-m0))

		fw0, sk0, rn0, rd0 := tw.totals()
		id, start := tw.tr.begin()
		tw.scope.id.Store(id)
		snap, el = r.pass(len(r.c.addrs), nil, &checkSink{}, tw)
		tw.tr.end("scan.pass", id, 0, 0, start)
		tw.scope.id.Store(0)
		fw1, sk1, rn1, rd1 := tw.totals()
		tracedRates = append(tracedRates, float64(len(r.c.addrs))/el.Seconds())
		feedWait = append(feedWait, fw1-fw0)
		sinkMS = append(sinkMS, sk1-sk0)
		readN = append(readN, rn1-rn0)
		readMS = append(readMS, rd1-rd0)
		for _, st := range snap.Stages {
			busy[st.Name] = append(busy[st.Name], st.BusyMS)
		}
	}
	for _, st := range snap.Stages {
		res.set("pipeline."+st.Name+".processed", float64(st.Processed), "count")
		res.set("pipeline."+st.Name+".busy_ms", median(busy[st.Name]), "ms")
	}
	res.set("pipeline.feed_wait_ms", median(feedWait), "ms")
	res.set("pipeline.sink_ms", median(sinkMS), "ms")
	res.set("chain.reads", median(readN), "count")
	res.set("chain.read_ms", median(readMS), "ms")
	res.set("proxion.emulations", float64(snap.Emulations), "count")
	res.set("proxion.cache_hit_share", snap.CacheHitRate, "share")
	res.set("proxion.structural_hits", float64(snap.StructuralHits), "count")
	res.set("proxion.static_summaries", float64(snap.StaticSummaries), "count")
	res.set("evm.decode_hit_share", median(decodeHit), "share")
	res.set("evm.decode_misses", median(decodeMiss), "count")
	res.set("trace.overhead_share", 1-median(tracedRates)/median(plain), "share")
	res.note("trace_passes", len(tracedRates))

	// Open-loop item latency at the two fixed rates, tracing off.
	settle()
	low := r.openPhase(r.spec.lowRate, dur(0.1*r.cfg.seconds))
	settle()
	high := r.openPhase(r.spec.highRate, dur(0.1*r.cfg.seconds))
	reportLatency(res, r.spec.blockN,
		latencyPoint{"low", r.spec.lowRate, low.latMS},
		latencyPoint{"high", r.spec.highRate, high.latMS})
	res.set("loadgen.late_ms_max", float64(max(low.lateMax, high.lateMax))/1e6, "ms")
	res.set("loadgen.backlog_max", float64(max(low.backlogMax, high.backlogMax)), "count")
	res.set("loadgen.generate_s", r.c.genS, "s")

	if err := replayLayers(res, tw, r.c, r.ref); err != nil {
		return err
	}
	zeroServeLayers(res)
	finishTrace(res, tw, r.cfg)
	return nil
}

// finishTrace writes the run's spans and notes their self times.
func finishTrace(res *result, tw *traceWiring, cfg config) {
	path := filepath.Join(cfg.workDir, fmt.Sprintf("spans-%s-seed%d.tsv", cfg.workload, cfg.seed))
	if err := tw.tr.write(path); err != nil {
		res.note("spans_error", err.Error())
		return
	}
	res.note("spans_file", path)
	res.note("self_ms", tw.tr.selfTimes())
}
