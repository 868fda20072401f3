package pipeline_test

import (
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/pipeline"
)

// TestSnapshotZeroItems runs a full multi-stage pipeline over an empty
// stream: every derived snapshot field must come out zero and finite —
// in particular the cache hit rate, whose denominator (hits + emulations)
// is zero on a run that never probed anything.
func TestSnapshotZeroItems(t *testing.T) {
	e := pipeline.New()
	stA := e.NewStage("a", 3)
	stB := e.NewStage("b", 2)
	aCh := make(chan item, 4)
	bCh := make(chan item, 4)
	var st pipeline.Stats

	e.Go(func() { close(aCh) })
	pipeline.Run(e, stA, aCh, func(it item) { bCh <- it }, func() { close(bCh) })
	pipeline.Run(e, stB, bCh, func(item) {}, nil)
	e.Wait()

	snap := e.Snapshot(&st)
	if snap.Contracts != 0 {
		t.Errorf("contracts = %d, want 0", snap.Contracts)
	}
	for name, v := range map[string]float64{
		"cache_hit_rate":    snap.CacheHitRate,
		"contracts_per_sec": snap.ContractsPerSec,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v on a zero-item run, want finite", name, v)
		}
		if v != 0 {
			t.Errorf("%s = %v on a zero-item run, want 0", name, v)
		}
	}
	if len(snap.Stages) != 2 {
		t.Fatalf("snapshot has %d stages, want 2", len(snap.Stages))
	}
	for _, s := range snap.Stages {
		if s.Processed != 0 {
			t.Errorf("stage %s processed %d on an empty stream", s.Name, s.Processed)
		}
	}
}

// TestSingleWorkerSerial pins the single-worker contract: with a pool of
// one, the stage function never runs concurrently with itself and items
// are handled in exact channel order.
func TestSingleWorkerSerial(t *testing.T) {
	const n = 200
	e := pipeline.New()
	s := e.NewStage("solo", 1)
	in := make(chan item) // unbuffered: order is the send order

	var inFlight atomic.Int32
	var order []int
	e.Go(func() {
		for i := 0; i < n; i++ {
			in <- item{idx: i}
		}
		close(in)
	})
	pipeline.Run(e, s, in, func(it item) {
		if inFlight.Add(1) != 1 {
			t.Errorf("single-worker stage ran concurrently at item %d", it.idx)
		}
		order = append(order, it.idx) // safe: only one worker touches it
		inFlight.Add(-1)
	}, nil)
	e.Wait()

	if len(order) != n {
		t.Fatalf("processed %d items, want %d", len(order), n)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("single worker reordered the stream: position %d holds item %d", i, got)
		}
	}
	if s.Processed() != n {
		t.Errorf("instrumentation counted %d, want %d", s.Processed(), n)
	}
}

// TestCancellationMidStream aborts the feeder partway through and checks
// the pipeline drains cleanly: Wait returns, every item that entered the
// stream is accounted for exactly once downstream, and the snapshot's
// counters agree with the truncated feed.
func TestCancellationMidStream(t *testing.T) {
	const total, cancelAt = 500, 123
	e := pipeline.New()
	stWork := e.NewStage("work", 4)
	stSink := e.NewStage("sink", 2)
	in := make(chan item, 8)
	out := make(chan item, 8)
	stop := make(chan struct{})
	var st pipeline.Stats

	fed := 0
	e.Go(func() {
		defer close(in)
		for i := 0; i < total; i++ {
			select {
			case <-stop:
				return
			case in <- item{idx: i}:
				fed++
				st.Scanned.Add(1)
			}
		}
	})
	var sunk atomic.Int64
	pipeline.Run(e, stWork, in, func(it item) {
		if it.idx == cancelAt {
			close(stop)
		}
		out <- it
	}, func() { close(out) })
	pipeline.Run(e, stSink, out, func(item) { sunk.Add(1) }, nil)
	e.Wait()

	if fed >= total {
		t.Fatalf("feeder ran to completion; cancellation never took effect")
	}
	if fed <= cancelAt {
		t.Fatalf("feeder stopped at %d items, before the cancel trigger at %d", fed, cancelAt)
	}
	if got := sunk.Load(); got != int64(fed) {
		t.Fatalf("sink saw %d items for %d fed: pipeline lost or duplicated work on cancel", got, fed)
	}
	snap := e.Snapshot(&st)
	if snap.Contracts != int64(fed) {
		t.Errorf("snapshot contracts = %d, want the %d actually fed", snap.Contracts, fed)
	}
	if snap.Stages[0].Processed != int64(fed) || snap.Stages[1].Processed != int64(fed) {
		t.Errorf("stage counts %d/%d, want %d/%d",
			snap.Stages[0].Processed, snap.Stages[1].Processed, fed, fed)
	}
}

// TestSnapshotCountersExport pins the deterministic-export hook: Counters must
// carry every run-wide counter plus a stage_<name>_processed entry per
// stage, and must exclude every wall-clock-derived field — the map is what
// the benchmark gate compares byte-for-byte across runs, so nothing
// scheduling-dependent may leak into it.
func TestSnapshotCountersExport(t *testing.T) {
	const n = 40
	e := pipeline.New()
	stA := e.NewStage("alpha", 2)
	stB := e.NewStage("beta", 3)
	aCh := make(chan item, 4)
	bCh := make(chan item, 4)
	var st pipeline.Stats

	e.Go(func() {
		for i := 0; i < n; i++ {
			st.Scanned.Add(1)
			aCh <- item{idx: i}
		}
		close(aCh)
	})
	pipeline.Run(e, stA, aCh, func(it item) {
		st.Emulations.Add(1)
		bCh <- it
	}, func() { close(bCh) })
	pipeline.Run(e, stB, bCh, func(item) { st.ProxiesDetected.Add(1) }, nil)
	e.Wait()

	got := e.Snapshot(&st).Counters()
	want := map[string]int64{
		"contracts":             n,
		"no_code":               0,
		"filter_rejected":       0,
		"emulations":            n,
		"cache_hits":            0,
		"emulation_aborts":      0,
		"proxies_detected":      n,
		"pairs_analyzed":        0,
		"histories_recovered":   0,
		"get_storage_at_calls":  0,
		"unresolved":            0,
		"read_retries":          0,
		"breaker_trips":         0,
		"stage_alpha_processed": n,
		"stage_beta_processed":  n,
	}
	if len(got) != len(want) {
		t.Errorf("Counters exported %d keys, want %d: %v", len(got), len(want), got)
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("Counters[%q] = %d, want %d", k, got[k], w)
		}
	}
	for _, banned := range []string{"wall_ms", "contracts_per_sec", "cache_hit_rate"} {
		if _, ok := got[banned]; ok {
			t.Errorf("Counters leaked wall-clock-derived key %q", banned)
		}
	}
}

// TestWallFreezesAfterWait: Wall is live while running and frozen once
// Wait returns, so a snapshot taken later reports the run, not the gap.
func TestWallFreezesAfterWait(t *testing.T) {
	e := pipeline.New()
	in := make(chan item)
	e.Go(func() { close(in) })
	pipeline.Run(e, e.NewStage("noop", 1), in, func(item) {}, nil)
	e.Wait()
	a := e.Wall()
	b := e.Wall()
	if a != b {
		t.Fatalf("Wall moved after Wait: %v then %v", a, b)
	}
	if a <= 0 {
		t.Fatalf("frozen wall = %v, want > 0", a)
	}
}
