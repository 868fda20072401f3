package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/etypes"
	"repro/internal/evm"
	"repro/internal/proxion"
	"repro/internal/serve"
	"repro/internal/store"
)

// The serve-mixed workload: an in-process proxiond over a landscape,
// driven over loopback HTTP by an open-loop generator.
const (
	serveContracts = 30000
	serveShards    = 2
	// hotFraction of requests repeat an address of the hot set, the first
	// 1/hotDivisor of the (shuffled) population, as in the service's own
	// load test. The rest are cold, drawn in turn from a pool several
	// times larger than the result cache, so a cold address has always
	// left the cache before it comes round again.
	hotFraction = 0.8
	hotDivisor  = 16
	// The two latency points (traced run) and the sustained-rate ladder
	// (end-to-end run), in requests/s.
	serveLowRate     = 2000.0
	serveHighRate    = 8000.0
	serveLadderStart = 16000.0
	serveLadderStep  = 1.2
	serveLadderRungs = 12
	// serveLimitMS is the ladder's p99 latency limit.
	serveLimitMS = 20.0
	// serveBlock is the block size of the latency summary.
	serveBlock = 1000
	// bulkSet addresses, more than the server's 4096-entry result cache,
	// are swept in bulkBatch batches for the throughput figure.
	bulkSet   = 8192
	bulkBatch = 256
	// clientTimeout bounds one request; a failed request's latency is
	// counted as this, above any latency limit.
	clientTimeout = 10 * time.Second
)

type serveRun struct {
	cfg  config
	c    *corpus
	ref  *reference
	acc  account
	rng  *rand.Rand
	tw   *traceWiring     // nil in untraced runs
	reps []etypes.Address // one address per distinct bytecode
	hot  []etypes.Address
	cold []etypes.Address // drawn in turn, wrapping around
	next int              // next cold address
	bulk []etypes.Address

	conns     int
	transport *http.Transport
	client    *http.Client

	lateMax    time.Duration
	backlogMax int
}

// server is one running proxiond stack: the Server and its HTTP listener.
type server struct {
	srv  *serve.Server
	hs   *http.Server
	done chan struct{}
	base string
}

func (r *serveRun) start(dir string, opts store.Options) (*server, error) {
	cfg := serve.Config{Reader: r.c.reader, Sources: r.c.sources, Shards: serveShards, StoreDir: dir, StoreOptions: opts}
	if r.tw != nil {
		cfg.Reader, cfg.Sources = r.tw.reader, r.tw.sources
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("serve.New: %w", err)
	}
	var h http.Handler = srv.Handler()
	if r.tw != nil {
		h = &tracedHandler{inner: h, tr: r.tw.tr}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &server{srv: srv, hs: &http.Server{Handler: h}, done: make(chan struct{}), base: "http://" + ln.Addr().String()}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	return s, nil
}

func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	<-s.done
	if cerr := s.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// check compares one wire verdict with the reference.
func (r *serveRun) check(v serve.Verdict) bool {
	a, err := etypes.HexToAddress(v.Address)
	if err != nil {
		return false
	}
	i, ok := r.ref.byAddr[a]
	if !ok {
		return false
	}
	want := r.ref.items[i]
	if v.IsProxy != want.isProxy {
		return false
	}
	return !want.isProxy || (v.Logic == want.logic.Hex() && v.Standard == want.standard.String())
}

func (r *serveRun) checkItem(it proxion.Item) bool {
	i, ok := r.ref.byAddr[it.Report.Address]
	if !ok {
		return false
	}
	want := r.ref.items[i]
	return it.Report.IsProxy == want.isProxy && it.Report.Logic == want.logic && it.Report.Standard == want.standard
}

// warm brings a server to the steady state the timed schedules measure:
// one address per distinct bytecode (the landscape's code is known, so a
// cold request costs a routine shard analysis rather than a first-ever
// emulation and pair analysis), then the hot set, filling the result cache
// the hot requests are served from.
func (r *serveRun) warm(s *server) {
	r.lookupAll(s, r.reps)
	r.lookupAll(s, r.hot)
}

// lookupAll asks for every address once through Server.Lookup on nproc
// goroutines, checking each verdict.
func (r *serveRun) lookupAll(s *server, addrs []etypes.Address) {
	var next atomic.Int64
	var failed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < r.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(addrs) {
					return
				}
				it, err := s.srv.Lookup(addrs[i])
				if err != nil || !r.checkItem(it) {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	r.acc.add(int64(len(addrs)), failed.Load())
}

// mix draws n request addresses: hot repeats and cold first-seen ones.
func (r *serveRun) mix(n int) []etypes.Address {
	out := make([]etypes.Address, n)
	for i := range out {
		if r.rng.Float64() < hotFraction || len(r.cold) == 0 {
			out[i] = r.hot[r.rng.Intn(len(r.hot))]
		} else {
			out[i] = r.cold[r.next]
			r.next = (r.next + 1) % len(r.cold)
		}
	}
	return out
}

// phase is one open-loop schedule's outcome.
type phase struct {
	latMS  []float64 // per request, from its due time; a failure counts as the client timeout
	allocs uint64    // heap allocations while the schedule ran
}

func (p phase) summary() latencySummary { return summarize([][]float64{p.latMS}, serveBlock) }

// openLoop sends a verdict request for each address of plan at rate from
// one process over at most r.conns connections. Request i is due at start + i/rate and is timed
// from then, so time spent waiting for a free connection counts; a sender
// that was idle and overslept its timer times from its wake-up instead,
// charging the oversleep to the generator's lateness.
func (r *serveRun) openLoop(s *server, rate float64, plan []etypes.Address) phase {
	n := len(plan)
	urls := make([]string, n)
	for i, a := range plan {
		urls[i] = s.base + "/v1/verdict?addr=" + a.Hex()
	}
	interval := 1e9 / rate
	lat := make([]int64, n)
	bodies := make([][]byte, n)
	ok := make([]bool, n)
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	m0 := mallocs()
	start := time.Now().Add(time.Millisecond)
	for w := 0; w < r.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lateMax time.Duration
			backlogMax := 0
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					break
				}
				due := start.Add(time.Duration(float64(i) * interval))
				base := due
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
					base = time.Now()
				}
				if late := time.Since(due); late > lateMax {
					lateMax = late
					backlogMax = max(backlogMax, int(float64(time.Since(start))/interval)-i)
				}
				req, err := http.NewRequest(http.MethodGet, urls[i], nil)
				if err != nil {
					continue
				}
				req.Header.Set(reqHeader, strconv.Itoa(i))
				resp, err := r.client.Do(req)
				if err != nil {
					continue
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				lat[i] = int64(time.Since(base))
				ok[i] = err == nil && resp.StatusCode == http.StatusOK
				bodies[i] = body
			}
			mu.Lock()
			r.lateMax = max(r.lateMax, lateMax)
			r.backlogMax = max(r.backlogMax, backlogMax)
			mu.Unlock()
		}()
	}
	wg.Wait()
	ph := phase{allocs: mallocs() - m0, latMS: make([]float64, n)}
	failed := int64(0)
	for i := range plan {
		var v serve.Verdict
		if !ok[i] || json.Unmarshal(bodies[i], &v) != nil || v.Address != plan[i].Hex() || !r.check(v) {
			failed++
			ph.latMS[i] = float64(clientTimeout.Milliseconds())
			continue
		}
		ph.latMS[i] = float64(lat[i]) / 1e6
	}
	r.acc.add(int64(n), failed)
	return ph
}

// bulkSweep asks for every bulk address in POST /v1/verdicts batches over
// r.conns connections and returns the sweep's addresses per second. The
// bulk set exceeds the result cache, so every sweep reaches the shards.
func (r *serveRun) bulkSweep(s *server) float64 {
	nb := (len(r.bulk) + bulkBatch - 1) / bulkBatch
	var next atomic.Int64
	var failed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < r.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				b := int(next.Add(1) - 1)
				if b >= nb {
					return
				}
				part := r.bulk[b*bulkBatch : min(len(r.bulk), (b+1)*bulkBatch)]
				failed.Add(int64(r.postBatch(s, part)))
			}
		}()
	}
	wg.Wait()
	el := time.Since(start)
	r.acc.add(int64(len(r.bulk)), failed.Load())
	return float64(len(r.bulk)) / el.Seconds()
}

// postBatch sends one batch and returns how many of its verdicts are
// missing or wrong.
func (r *serveRun) postBatch(s *server, addrs []etypes.Address) int {
	hex := make([]string, len(addrs))
	for i, a := range addrs {
		hex[i] = a.Hex()
	}
	body, err := json.Marshal(map[string][]string{"addresses": hex})
	if err != nil {
		return len(addrs)
	}
	resp, err := r.client.Post(s.base+"/v1/verdicts", "application/json", bytes.NewReader(body))
	if err != nil {
		return len(addrs)
	}
	defer resp.Body.Close()
	var out struct {
		Verdicts []serve.Verdict `json:"verdicts"`
	}
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&out) != nil || len(out.Verdicts) != len(addrs) {
		return len(addrs)
	}
	bad := 0
	for i, v := range out.Verdicts {
		if v.Address != hex[i] || !r.check(v) {
			bad++
		}
	}
	return bad
}

// rateN is the request count of a schedule at rate lasting d, at least
// one latency block (scaled down with the corpus).
func (r *serveRun) rateN(rate float64, d time.Duration) int {
	return max(int(serveBlock*min(1, r.cfg.scale)), int(rate*d.Seconds()))
}

func runServe(cfg config) (*result, error) {
	c := landscapeCorpus(cfg.seed, int(serveContracts*cfg.scale))
	ref := buildReference(c)
	rng := rand.New(rand.NewSource(cfg.seed))
	_, hashes, err := readCode(c)
	if err != nil {
		return nil, err
	}
	var reps, perm []etypes.Address
	seen := make(map[etypes.Hash]bool)
	for i, a := range c.addrs {
		if !seen[hashes[i]] {
			seen[hashes[i]] = true
			reps = append(reps, a)
		} else {
			perm = append(perm, a)
		}
	}
	rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	nHot := max(1, len(c.addrs)/hotDivisor)
	nBulk := min(bulkSet, len(perm)/3)
	r := &serveRun{
		cfg: cfg, c: c, ref: ref, rng: rng, reps: reps,
		hot: perm[:nHot], cold: perm[nHot : len(perm)-nBulk], bulk: perm[len(perm)-nBulk:],
		conns: runtime.NumCPU(),
	}
	if cfg.tamper {
		ref.tamper(r.hot[0])
	}
	r.transport = &http.Transport{MaxConnsPerHost: r.conns, MaxIdleConnsPerHost: r.conns, DisableCompression: true}
	r.client = &http.Client{Transport: r.transport, Timeout: clientTimeout}
	defer r.transport.CloseIdleConnections()
	if cfg.trace {
		r.tw = newTraceWiring(c)
		r.tw.tr.off.Store(true)
	}
	dir, err := os.MkdirTemp(cfg.workDir, "store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	res := &result{}
	res.note("contracts", len(c.addrs))
	res.note("reference_digest", fmt.Sprintf("%016x", ref.digest()))
	res.note("connections", r.conns)

	// Prime the store, then set up nine times: serve.New (which replays
	// the verdict store) plus the warm-up. The last server stays. A set-up
	// takes tens of milliseconds, so more of them steady the median.
	s, err := r.start(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	r.warm(s)
	var setups []float64
	for i := 0; i < 9; i++ {
		if err := s.stop(); err != nil {
			return nil, err
		}
		t := time.Now()
		if s, err = r.start(dir, store.Options{}); err != nil {
			return nil, err
		}
		r.warm(s)
		setups = append(setups, time.Since(t).Seconds())
	}
	if !cfg.trace {
		res.set("setup_s", median(setups), "s")
	}
	res.note("setup_s_samples", setups)

	if cfg.trace {
		err = r.traced(res, s)
	} else {
		r.endToEnd(res, s)
	}
	if serr := s.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	res.note("cold_pool", len(r.cold))
	res.Attempted, res.Failed = r.acc.attempted, r.acc.failed
	return res, nil
}

// endToEnd measures in rounds that interleave every figure, so a slow
// drift of the host's speed during the run reaches all of them alike. A
// round runs one climb of the rate ladder and bulk sweeps for 8% of the
// run. There are at least two rounds. Each round starts from a collected
// heap (settle), so the collections inside it fall at the same points on
// every run; they stay inside the timing.
func (r *serveRun) endToEnd(res *result, s *server) {
	secs := r.cfg.seconds
	var rates, peaks []float64
	var allocs uint64
	requests := 0
	var ladders [][]rung
	end := time.Now().Add(dur(secs))
	for len(ladders) < 2 || time.Now().Before(end) {
		settle()
		hs := startHeapSampler(2 * time.Millisecond)
		ladders = append(ladders, climb(serveLadderStart, serveLadderStep, serveLadderRungs, serveLimitMS, func(rate float64) latencySummary {
			settle()
			ph := r.openLoop(s, rate, r.mix(r.rateN(rate, dur(0.006*secs))))
			allocs += ph.allocs
			requests += len(ph.latMS)
			return ph.summary()
		}))
		for stop := time.Now().Add(dur(0.08 * secs)); ; {
			rates = append(rates, r.bulkSweep(s))
			if time.Now().After(stop) {
				break
			}
		}
		peaks = append(peaks, hs.Stop())
		// The sweeps evicted the hot set from the result cache.
		r.lookupAll(s, r.hot)
	}
	sustained, passed := sustainedRate(ladders, serveLadderStart, serveLadderStep, serveLimitMS)
	res.set("sustained_rps", sustained, "1/s")
	res.set("allocs_per_contract", float64(allocs)/float64(requests), "count")
	res.set("contracts_per_s", median(rates), "1/s")
	res.set("peak_heap_mib", median(peaks), "MiB")
	res.note("rounds", len(ladders))
	res.note("ladder_rungs_passed", passed)
	res.note("ladder_rounds", ladders)
	res.note("ladder_limit_p99_ms", serveLimitMS)
	res.note("contracts_per_s_sweeps", len(rates))
	res.note("contracts_per_s_quartiles", []float64{quantile(rates, 0.25), quantile(rates, 0.75)})
	res.note("peak_heap_mib_rounds", peaks)
	res.note("loadgen.late_ms_max", float64(r.lateMax)/1e6)
	res.note("loadgen.backlog_max", r.backlogMax)
}

// traced measures the request latency at the two fixed rates untraced,
// then the serve and store layers: the high-rate point traced (the
// overhead against the untraced one), a NoSync server at the same rate
// (the fsync share), and timed Lookup and store replays.
func (r *serveRun) traced(res *result, s *server) error {
	settle()
	plainLow := r.openLoop(s, serveLowRate, r.mix(r.rateN(serveLowRate, dur(0.3*r.cfg.seconds))))
	n := r.rateN(serveHighRate, dur(0.2*r.cfg.seconds))
	settle()
	plain := r.openLoop(s, serveHighRate, r.mix(n))
	reportLatency(res, serveBlock,
		latencyPoint{"low", serveLowRate, [][]float64{plainLow.latMS}},
		latencyPoint{"high", serveHighRate, [][]float64{plain.latMS}})

	tr := r.tw.tr
	tr.off.Store(false)
	h0, m0, _ := evm.DecodeCacheStats()
	tracedPh := r.openLoop(s, serveHighRate, r.mix(n))
	h1, m1, _ := evm.DecodeCacheStats()
	res.set("evm.decode_hit_share", float64(h1-h0)/math.Max(1, float64(h1-h0+m1-m0)), "share")
	res.set("evm.decode_misses", float64(m1-m0), "count")
	res.set("trace.overhead_share", tracedPh.summary().P50MS/plain.summary().P50MS-1, "share")
	reads, readMS := tr.total("chain.read")
	res.set("chain.reads", float64(reads), "count")
	res.set("chain.read_ms", readMS, "ms")
	httpN, httpMS := tr.total("serve.http")
	httpMean := httpMS / math.Max(1, float64(httpN))
	res.set("serve.http_ms", httpMean, "ms")

	// Lookup replay: the same hot/cold mix straight into Server.Lookup.
	mixed := r.mix(1000)
	failed := int64(0)
	lookupMS, _ := replay(r.tw, "serve.lookup", mixed, func(a etypes.Address) {
		if it, err := s.srv.Lookup(a); err != nil || !r.checkItem(it) {
			failed++
		}
	})
	r.acc.add(int64(len(mixed)), failed)
	lookupMean := lookupMS / float64(len(mixed))
	res.set("serve.lookup_ms", lookupMean, "ms")
	res.set("serve.encode_ms", httpMean-lookupMean, "ms")

	cnt := s.srv.Counters()
	res.set("serve.result_cache_hit_share", float64(cnt.ResultCacheHits)/math.Max(1, float64(cnt.Requests)), "share")
	res.set("serve.coalesced", float64(cnt.Coalesced), "count")
	res.set("serve.analyses", float64(cnt.Analyses), "count")
	var emulations, hits, structural, summaries int64
	for _, sh := range s.srv.Stats().Shards {
		if p := sh.Summary.Pipeline; p != nil {
			emulations += p.Emulations
			hits += p.CacheHits
			structural += p.StructuralHits
			summaries += p.StaticSummaries
		}
	}
	res.set("proxion.emulations", float64(emulations), "count")
	res.set("proxion.cache_hit_share", float64(hits)/math.Max(1, float64(hits+emulations)), "share")
	res.set("proxion.structural_hits", float64(structural), "count")
	res.set("proxion.static_summaries", float64(summaries), "count")
	st := s.srv.StoreStats()
	res.set("store.appended", float64(st.Appended), "count")
	res.set("store.skipped_share", float64(st.SkippedPuts)/math.Max(1, float64(st.Appended+st.SkippedPuts)), "share")
	tr.off.Store(true)

	// The fsync share. Only a bytecode's first verdict appends to the
	// store; in the steady state above every bytecode is known, so
	// requests never reach fsync. The write path is a cold start: one
	// request per distinct bytecode against an empty store, run with
	// fsync and with NoSync.
	coldStart := func(opts store.Options) (float64, error) {
		dir, err := os.MkdirTemp(r.cfg.workDir, "coldstart-")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		cs, err := r.start(dir, opts)
		if err != nil {
			return 0, err
		}
		ph := r.openLoop(cs, serveLowRate, r.reps)
		return mean(ph.latMS), cs.stop()
	}
	synced, err := coldStart(store.Options{})
	if err != nil {
		return err
	}
	unsynced, err := coldStart(store.Options{NoSync: true})
	if err != nil {
		return err
	}
	res.set("store.fsync_share", 1-unsynced/synced, "share")
	res.note("store.cold_start_mean_ms", map[string]float64{"fsync": synced, "nosync": unsynced})

	tr.off.Store(false)
	if err := r.storeReplay(res); err != nil {
		return err
	}
	res.set("loadgen.late_ms_max", float64(r.lateMax)/1e6, "ms")
	res.set("loadgen.backlog_max", float64(r.backlogMax), "count")
	res.set("loadgen.generate_s", r.c.genS, "s")
	if err := replayLayers(res, r.tw, r.c, r.ref); err != nil {
		return err
	}
	zeroPipelineLayers(res)
	finishTrace(res, r.tw, r.cfg)
	return nil
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / math.Max(1, float64(len(xs)))
}

// storeReplay times store.Put with fsync for the corpus's verdict-cache
// entries into a fresh store, then store.Open replaying them.
func (r *serveRun) storeReplay(res *result) error {
	det := proxion.NewDetector(r.c.reader)
	det.AnalyzeStream(proxion.SliceSource(r.hot), r.c.sources, proxion.SinkFunc(func(proxion.Item) {}), proxion.AnalyzeOptions{})
	entries := det.ExportVerdicts()
	dir, err := os.MkdirTemp(r.cfg.workDir, "replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(filepath.Join(dir, "s"), store.Options{})
	if err != nil {
		return err
	}
	var putErr error
	var putUS []float64
	replay(r.tw, "store.put", entries, func(e proxion.CacheEntry) {
		t := time.Now()
		if err := st.Put(e); err != nil && putErr == nil {
			putErr = err
		}
		putUS = append(putUS, float64(time.Since(t).Nanoseconds())/1e3)
	})
	if err := st.Close(); err != nil {
		return err
	}
	if putErr != nil {
		return putErr
	}
	res.set("store.put_p50_us", quantile(putUS, 0.5), "us")
	res.set("store.put_p99_us", quantile(putUS, 0.99), "us")
	res.note("store.put_samples", len(putUS))
	var openErr error
	loadMS, _ := replay(r.tw, "store.load", []int{0}, func(int) {
		var st2 *store.Store
		if st2, openErr = store.Open(filepath.Join(dir, "s"), store.Options{}); openErr == nil {
			openErr = st2.Close()
		}
	})
	res.set("store.load_ms", loadMS, "ms")
	return openErr
}

// zeroPipelineLayers reports the scan-only pipeline figures as not
// observed: a shard's engine runs for the server's lifetime, so it has no
// per-pass snapshot, feed or sink the benchmark can time from outside.
func zeroPipelineLayers(res *result) {
	for _, st := range []string{"disasm-filter", "emulation-probe", "classification", "pair-analysis"} {
		res.set("pipeline."+st+".processed", 0, "count")
		res.set("pipeline."+st+".busy_ms", 0, "ms")
	}
	res.set("pipeline.feed_wait_ms", 0, "ms")
	res.set("pipeline.sink_ms", 0, "ms")
}
