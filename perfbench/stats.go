package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs need not be sorted and is left untouched.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || s[lo] == s[hi] {
		return s[lo]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// settle runs a full garbage collection before a timed window, as the
// testing package does before each benchmark, so every window starts from
// the same heap state and the collections inside it fall where the
// window's own allocations put them, not where earlier work left them.
func settle() { runtime.GC() }

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// heapSampler polls HeapInuse (heap object bytes plus unused bytes in
// in-use spans, read through runtime/metrics so sampling does not stop the
// world) and keeps the peak.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	samples := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	read := func() {
		metrics.Read(samples)
		v := samples[0].Value.Uint64() + samples[1].Value.Uint64()
		h.mu.Lock()
		if v > h.peak {
			h.peak = v
		}
		h.mu.Unlock()
	}
	go func() {
		defer close(h.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			read()
			select {
			case <-h.stop:
				read()
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in MiB.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.peak) / (1 << 20)
}

// latencySummary reduces latencies (ms, in schedule order, one slice per
// independent schedule) to the reported figures. The p99 is the median
// over blocks of blockN consecutive operations of each block's p99, so
// every block p99 has at least ten samples beyond it and one stall (a GC
// cycle, a noisy neighbour) moves one block rather than the whole figure;
// the pooled p99 is kept beside it.
type latencySummary struct {
	P50MS       float64 `json:"p50_ms"`
	P99MS       float64 `json:"p99_ms"`
	PooledP99MS float64 `json:"pooled_p99_ms"`
	LastP50MS   float64 `json:"last_block_p50_ms"`
	// Pooled is the pooled p90, p95, p99.9 and max.
	Pooled  []float64 `json:"pooled_p90_p95_p999_max"`
	Samples int       `json:"samples"`
	Blocks  int       `json:"blocks"`
}

func summarize(runs [][]float64, blockN int) latencySummary {
	var all, blockP99 []float64
	last := 0.0
	for _, lat := range runs {
		all = append(all, lat...)
		for lo := 0; lo < len(lat); lo += blockN {
			hi := min(len(lat), lo+blockN)
			if hi-lo < blockN && lo > 0 {
				// A short tail block is left out of the block figures.
				break
			}
			blockP99 = append(blockP99, quantile(lat[lo:hi], 0.99))
			last = quantile(lat[lo:hi], 0.5)
		}
	}
	return latencySummary{
		P50MS:       quantile(all, 0.5),
		P99MS:       median(blockP99),
		PooledP99MS: quantile(all, 0.99),
		LastP50MS:   last,
		Pooled:      []float64{quantile(all, 0.9), quantile(all, 0.95), quantile(all, 0.999), quantile(all, 1)},
		Samples:     len(all),
		Blocks:      len(blockP99),
	}
}

// rung is one step of a fixed-rate ladder.
type rung struct {
	Rate float64 `json:"rate"`
	latencySummary
}

// passes reports whether a rung met the latency limit with no growing
// backlog: the p99 is within the limit and so is the median latency of
// the last block, which a backlog still growing at the end exceeds.
func (r rung) passes(limitMS float64) bool {
	return r.P99MS <= limitMS && r.LastP50MS <= limitMS
}

// climb runs the rate ladder once: rungs at start×step^k, k < n, each
// timed by run, stopping early only in deep overload (p99 over four times
// the limit).
func climb(start, step float64, n int, limitMS float64, run func(rate float64) latencySummary) []rung {
	var rungs []rung
	rate := start
	for k := 0; k < n; k++ {
		rg := rung{Rate: rate, latencySummary: run(rate)}
		rungs = append(rungs, rg)
		if rg.P99MS > 4*limitMS {
			break
		}
		rate *= step
	}
	return rungs
}

// sustainedRate estimates from the climbs of every round the highest rate
// that meets the limit. Near the knee a rung passes in some rounds and
// fails in others, so rather than trust the first failure, it counts the
// rungs each round passed (a rung never reached fails) and places the
// knee at start×step^(mean count − ½): midway between the last passing
// and the first failing rung when every round agrees, and moving smoothly
// with the share of rounds that pass when they do not.
func sustainedRate(climbs [][]rung, start, step, limitMS float64) (rate float64, passed []int) {
	total := 0
	for _, c := range climbs {
		n := 0
		for _, rg := range c {
			if rg.passes(limitMS) {
				n++
			}
		}
		passed = append(passed, n)
		total += n
	}
	mean := float64(total) / float64(max(len(climbs), 1))
	return start * math.Pow(step, mean-0.5), passed
}

// latencyPoint is the open-loop latency at one fixed arrival rate: one
// slice per schedule, in schedule order.
type latencyPoint struct {
	name string
	rate float64
	lat  [][]float64
}

// reportLatency sets req_p50_ms.<name> and req_p99_ms.<name> for each
// point and notes its full summary and rate.
func reportLatency(res *result, blockN int, points ...latencyPoint) {
	for _, pt := range points {
		sum := summarize(pt.lat, blockN)
		res.set("req_p50_ms."+pt.name, sum.P50MS, "ms")
		res.set("req_p99_ms."+pt.name, sum.P99MS, "ms")
		res.note("req."+pt.name, sum)
		res.note("rate."+pt.name, pt.rate)
	}
}
