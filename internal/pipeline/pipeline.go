// Package pipeline is a small staged-concurrency engine: an ordered stream
// of work items flows through a chain of named stages, each backed by its
// own worker pool, connected by bounded channels with no barrier between
// stages — an item finished by stage N enters stage N+1 while later items
// are still in stage N. Every stage carries atomic instrumentation
// (items processed, busy time) so a run can report where the wall-clock
// went.
//
// The engine is deliberately domain-free: it knows nothing about contracts
// or proxies. The proxion package wires its analysis stages (disassembly
// filter → emulation probe → classification → logic history → pair
// collision analysis) onto it.
package pipeline

import (
	"sync"
	"sync/atomic"
	"time"
)

// Stage is one named step of a pipeline with its own worker pool and
// instrumentation counters. Create stages through Engine.NewStage so they
// appear in the engine's snapshot.
type Stage struct {
	name    string
	workers int

	processed Counter
	busy      Counter // nanoseconds spent inside the stage function
}

// Name returns the stage's display name.
func (s *Stage) Name() string { return s.name }

// Workers returns the stage's worker-pool size.
func (s *Stage) Workers() int { return s.workers }

// Processed returns the number of items the stage has completed.
func (s *Stage) Processed() int64 { return s.processed.Load() }

// Engine coordinates the goroutines of one pipeline run: the feeder, every
// stage's workers, and the per-stage closers that propagate end-of-stream
// downstream. Wait blocks until the whole pipeline has drained.
type Engine struct {
	wg     sync.WaitGroup
	stages []*Stage
	start  time.Time
	// wall is the largest duration Wall has handed out, in nanoseconds,
	// with wallFrozen set once Wait has fixed it. Every update is a CAS
	// that only raises the value, so concurrent observers (live progress
	// reporting, soak samplers) never see the clock go backwards, and the
	// frozen value is at least every reading taken before the freeze.
	wall atomic.Int64
}

// wallFrozen marks Engine.wall as final; the remaining bits hold the
// duration.
const wallFrozen = int64(1) << 62

// New creates an empty engine and starts its wall clock.
func New() *Engine {
	return &Engine{start: time.Now()}
}

// NewStage registers a named stage with the given worker-pool size.
// Workers below 1 are clamped to 1.
func (e *Engine) NewStage(name string, workers int) *Stage {
	if workers < 1 {
		workers = 1
	}
	s := &Stage{name: name, workers: workers}
	e.stages = append(e.stages, s)
	return s
}

// Go runs f on a goroutine tracked by Wait. Use it for feeders and any
// auxiliary plumbing that must finish before the run is considered done.
func (e *Engine) Go(f func()) {
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		f()
	}()
}

// Wait blocks until every stage and feeder has finished, then freezes the
// engine's wall clock.
func (e *Engine) Wait() {
	e.wg.Wait()
	for {
		w := e.wall.Load()
		if w&wallFrozen != 0 {
			return
		}
		if e.wall.CompareAndSwap(w, max(w, int64(time.Since(e.start)))|wallFrozen) {
			return
		}
	}
}

// Wall returns the run's duration: live while running, frozen after Wait.
// Safe to call from any goroutine while the pipeline runs; successive
// readings never decrease.
func (e *Engine) Wall() time.Duration {
	for {
		w := e.wall.Load()
		if w&wallFrozen != 0 {
			return time.Duration(w &^ wallFrozen)
		}
		now := int64(time.Since(e.start))
		if now <= w || e.wall.CompareAndSwap(w, now) {
			return time.Duration(max(w, now))
		}
	}
}

// Run launches the stage's worker pool over the in channel. Each worker
// repeatedly pulls an item and applies fn; fn performs the stage's own
// sends to downstream channels. When every worker has drained (in was
// closed and emptied), onDone fires exactly once — that is where the stage
// closes the downstream channels it feeds. A nil onDone is allowed for
// terminal stages.
func Run[I any](e *Engine, s *Stage, in <-chan I, fn func(I), onDone func()) {
	var stageWG sync.WaitGroup
	for w := 0; w < s.workers; w++ {
		stageWG.Add(1)
		e.wg.Add(1)
		go func() {
			defer stageWG.Done()
			defer e.wg.Done()
			for item := range in {
				t0 := time.Now()
				fn(item)
				s.busy.Add(int64(time.Since(t0)))
				s.processed.Add(1)
			}
		}()
	}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		stageWG.Wait()
		if onDone != nil {
			onDone()
		}
	}()
}
