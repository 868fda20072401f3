package serve

import (
	"fmt"
	"sync"
	"testing"
)

// TestShardConcurrencyMatrix drives every shard count the service ships
// with under mixed concurrent load — lookups, repeat lookups, stats reads
// — and checks the invariants that must hold at any interleaving:
// exactly one analysis per distinct address, every caller gets an answer,
// stats totals reconcile. Run under -race in CI (the `serve` job), where
// the interleavings themselves are the test.
func TestShardConcurrencyMatrix(t *testing.T) {
	contracts := 48
	workers := 12
	rounds := 4
	if testing.Short() {
		contracts, workers, rounds = 24, 6, 2
	}
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			c := testCorpus(t, int64(71+shards), contracts)
			srv, ts := newTestServer(t, c, Config{Shards: shards, StoreDir: t.TempDir()})
			addrs := c.Chain.Contracts()

			// Lookup workers: interleaved orders so shards see contention.
			// The stride is coprime to the corpus size, so every worker's
			// walk visits every address once per round.
			stride := 7
			for gcd(stride, len(addrs)) != 1 {
				stride++
			}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for r := 0; r < rounds; r++ {
						for i := range addrs {
							a := addrs[(i*stride+w)%len(addrs)]
							if _, err := srv.Lookup(a); err != nil {
								t.Errorf("Lookup: %v", err)
								return
							}
						}
					}
				}(w)
			}
			// Stats readers race the live pipeline counters.
			stop := make(chan struct{})
			var statsWG sync.WaitGroup
			statsWG.Add(1)
			go func() {
				defer statsWG.Done()
				for {
					select {
					case <-stop:
						return
					default:
						_ = srv.Stats()
						var v Verdict
						getJSON(t, ts.URL+"/v1/verdict?addr="+addrs[0].Hex(), &v)
					}
				}
			}()
			wg.Wait()
			close(stop)
			statsWG.Wait()

			if got := srv.Counters().Analyses; got != int64(len(addrs)) {
				t.Fatalf("analyses=%d, want %d (one per distinct address)", got, len(addrs))
			}
			stats := srv.Stats()
			if stats.Total.Contracts != len(addrs) {
				t.Fatalf("stats total=%d, want %d", stats.Total.Contracts, len(addrs))
			}
			if err := srv.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
		})
	}
}

// gcd returns the greatest common divisor of a and b.
func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// TestConcurrentLookupAndClose races shutdown against live traffic: every
// lookup must either complete with a verdict or fail fast with the
// shutdown error — never hang, never panic.
func TestConcurrentLookupAndClose(t *testing.T) {
	c := testCorpus(t, 79, 24)
	srv, err := New(Config{Reader: c.Chain, Sources: c.Registry, Shards: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	addrs := c.Chain.Contracts()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, a := range addrs {
				_, err := srv.Lookup(a)
				_ = err // a shutdown error is a legal outcome here
				_ = i
			}
		}(w)
	}
	// Close midway through the storm.
	var onceWG sync.WaitGroup
	onceWG.Add(1)
	go func() {
		defer onceWG.Done()
		if _, err := srv.Lookup(addrs[0]); err != nil {
			t.Errorf("first lookup should precede Close: %v", err)
		}
		if err := srv.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	wg.Wait()
	onceWG.Wait()
}
