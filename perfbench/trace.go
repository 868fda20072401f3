package main

import (
	"bufio"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chain"
	"repro/internal/etypes"
	"repro/internal/proxion"
	"repro/internal/solc"
	"repro/internal/u256"
)

// span is one timed interval at a layer boundary. Parent links a span to
// the span that caused it; Req groups the spans of one request.
type span struct {
	ID, Parent, Req int64
	Name            string
	Start, End      int64 // ns since the tracer's epoch
}

// agg accumulates every span of one name, including those past the
// in-memory cap.
type agg struct {
	n    atomic.Int64
	ns   atomic.Int64
	kept int // spans of this name held in memory; guarded by tracer.mu
}

// tracer records spans in memory and writes them when the run ends. A nil
// *tracer is a valid, disabled tracer: every method is a no-op, so the
// untraced runs pay one nil check per boundary.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64
	// off pauses recording: begin hands out id 0 and end ignores it.
	off atomic.Bool

	mu      sync.Mutex
	spans   []span
	perName int // spans kept in memory per name
	dropped int64

	aggMu sync.Mutex
	aggs  map[string]*agg
}

func newTracer(perName int) *tracer {
	return &tracer{epoch: time.Now(), perName: perName, aggs: make(map[string]*agg)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its id and start time.
func (t *tracer) begin() (id, start int64) {
	if t == nil || t.off.Load() {
		return 0, 0
	}
	return t.nextID.Add(1), t.now()
}

// end closes a span opened by begin.
func (t *tracer) end(name string, id, parent, req, start int64) {
	if t == nil || id == 0 {
		return
	}
	end := t.now()
	a := t.aggFor(name)
	a.n.Add(1)
	a.ns.Add(end - start)
	t.mu.Lock()
	if a.kept < t.perName {
		a.kept++
		t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

func (t *tracer) aggFor(name string) *agg {
	t.aggMu.Lock()
	defer t.aggMu.Unlock()
	a := t.aggs[name]
	if a == nil {
		a = new(agg)
		t.aggs[name] = a
	}
	return a
}

// total returns the count and summed duration (ms) of every span of name.
func (t *tracer) total(name string) (int64, float64) {
	if t == nil {
		return 0, 0
	}
	a := t.aggFor(name)
	return a.n.Load(), float64(a.ns.Load()) / 1e6
}

// selfTimes returns, per span name, the summed self time in ms of the
// recorded spans: each span's duration minus the part of its interval
// covered by its children.
func (t *tracer) selfTimes() map[string]float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		covered := int64(0)
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		curS, curE := int64(-1), int64(-1)
		for _, k := range kids {
			ks, ke := max(k.Start, s.Start), min(k.End, s.End)
			if ke <= ks {
				continue
			}
			if ks > curE {
				covered += curE - curS
				curS, curE = ks, ke
			} else if ke > curE {
				curE = ke
			}
		}
		covered += curE - curS
		out[s.Name] += float64(s.End-s.Start-covered) / 1e6
	}
	return out
}

// write dumps the recorded spans as tab-separated lines:
// id, parent, req, name, start_ns, end_ns.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# id\tparent\treq\tname\tstart_ns\tend_ns\t(dropped past cap: %d)\n", t.dropped)
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.ID, s.Parent, s.Req, s.Name, s.Start, s.End)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

// scope is the parent span new boundary spans attach to. Replays set it
// around each timed call; concurrent pipeline work attaches to the pass.
type scope struct{ id atomic.Int64 }

// tracedReader wraps the chain.Reader every detector reads through,
// timing each read as a "chain.read" span.
type tracedReader struct {
	chain.Reader
	tr     *tracer
	parent *scope
}

func (r *tracedReader) done(id, start int64) {
	r.tr.end("chain.read", id, r.parent.id.Load(), 0, start)
}

func (r *tracedReader) LatestHeader() chain.BlockHeader {
	id, start := r.tr.begin()
	v := r.Reader.LatestHeader()
	r.done(id, start)
	return v
}

func (r *tracedReader) HeaderByNumber(n uint64) (chain.BlockHeader, error) {
	id, start := r.tr.begin()
	v, err := r.Reader.HeaderByNumber(n)
	r.done(id, start)
	return v, err
}

func (r *tracedReader) Contracts() []etypes.Address {
	id, start := r.tr.begin()
	v := r.Reader.Contracts()
	r.done(id, start)
	return v
}

func (r *tracedReader) Code(a etypes.Address) []byte {
	id, start := r.tr.begin()
	v := r.Reader.Code(a)
	r.done(id, start)
	return v
}

func (r *tracedReader) CodeHash(a etypes.Address) etypes.Hash {
	id, start := r.tr.begin()
	v := r.Reader.CodeHash(a)
	r.done(id, start)
	return v
}

func (r *tracedReader) CreatedAt(a etypes.Address) uint64 {
	id, start := r.tr.begin()
	v := r.Reader.CreatedAt(a)
	r.done(id, start)
	return v
}

func (r *tracedReader) Exists(a etypes.Address) bool {
	id, start := r.tr.begin()
	v := r.Reader.Exists(a)
	r.done(id, start)
	return v
}

func (r *tracedReader) GetState(a etypes.Address, k etypes.Hash) etypes.Hash {
	id, start := r.tr.begin()
	v := r.Reader.GetState(a, k)
	r.done(id, start)
	return v
}

func (r *tracedReader) GetBalance(a etypes.Address) u256.Int {
	id, start := r.tr.begin()
	v := r.Reader.GetBalance(a)
	r.done(id, start)
	return v
}

func (r *tracedReader) GetNonce(a etypes.Address) uint64 {
	id, start := r.tr.begin()
	v := r.Reader.GetNonce(a)
	r.done(id, start)
	return v
}

func (r *tracedReader) TxSelectors(a etypes.Address) [][4]byte {
	id, start := r.tr.begin()
	v := r.Reader.TxSelectors(a)
	r.done(id, start)
	return v
}

func (r *tracedReader) GetStorageAt(a etypes.Address, s etypes.Hash, b uint64) etypes.Hash {
	id, start := r.tr.begin()
	v := r.Reader.GetStorageAt(a, s, b)
	r.done(id, start)
	return v
}

// tracedSources wraps the SourceProvider pair analysis asks for verified
// source.
type tracedSources struct {
	inner  proxion.SourceProvider
	tr     *tracer
	parent *scope
}

func (p *tracedSources) Source(a etypes.Address) *solc.Contract {
	id, start := p.tr.begin()
	c := p.inner.Source(a)
	p.tr.end("sources.lookup", id, p.parent.id.Load(), 0, start)
	return c
}

// tracedSource wraps an AddressSource. The time from one Next returning
// to the feeder's next call is the feeder blocked on the engine's window
// and inter-stage channel: backpressure, recorded as "pipeline.feed_wait".
type tracedSource struct {
	inner    proxion.AddressSource
	tr       *tracer
	parent   int64
	returned int64 // tracer time the previous Next returned; 0 before the first
}

func (s *tracedSource) Next() (etypes.Address, bool) {
	if s.returned != 0 {
		s.tr.end("pipeline.feed_wait", s.tr.nextID.Add(1), s.parent, 0, s.returned)
	}
	a, ok := s.inner.Next()
	s.returned = s.tr.now()
	return a, ok
}

// tracedSink wraps a ReportSink, timing each Emit as "pipeline.sink" with
// the item index as its request id.
type tracedSink struct {
	inner  proxion.ReportSink
	tr     *tracer
	parent int64
}

func (s *tracedSink) Emit(it proxion.Item) {
	id, start := s.tr.begin()
	s.inner.Emit(it)
	s.tr.end("pipeline.sink", id, s.parent, int64(it.Index), start)
}

// reqHeader carries the load generator's request id to the traced handler.
const reqHeader = "X-Perfbench-Req"

// tracedHandler is the HTTP middleware around proxiond's handler. While
// the tracer is off it records nothing, so one server serves both the
// untraced and the traced phase of a run.
type tracedHandler struct {
	inner http.Handler
	tr    *tracer
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64) // absent on non-generator requests: id 0
	id, start := h.tr.begin()
	h.inner.ServeHTTP(w, r)
	h.tr.end("serve.http", id, 0, req, start)
}
