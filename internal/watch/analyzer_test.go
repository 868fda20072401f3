package watch

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/proxion"
	"repro/internal/store"
)

// TestStoreErrorsCounted closes the verdict store under a running
// analyzer: appends that fail afterwards must move StoreErrors, while
// Analyze still returns one item per address, in order.
func TestStoreErrorsCounted(t *testing.T) {
	c := gen.Generate(gen.Config{Seed: 61, Contracts: 24})
	st, err := store.Open(t.TempDir(), store.Options{NoSync: true})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	an := NewDetectorAnalyzer(proxion.NewDetector(c.Chain), c.Registry, st)

	addrs := c.Chain.Contracts()
	half := len(addrs) / 2
	first, err := an.Analyze(addrs[:half])
	if err != nil {
		t.Fatalf("Analyze with an open store: %v", err)
	}
	if len(first) != half {
		t.Fatalf("Analyze returned %d items for %d addresses", len(first), half)
	}
	if n := an.StoreErrors(); n != 0 {
		t.Fatalf("open store counted %d errors", n)
	}
	if st.Stats().Appended == 0 {
		t.Fatal("open store appended nothing")
	}

	if err := st.Close(); err != nil {
		t.Fatalf("closing the store: %v", err)
	}
	rest := addrs[half:]
	items, err := an.Analyze(rest)
	if err != nil {
		t.Fatalf("Analyze with a closed store: %v", err)
	}
	if len(items) != len(rest) {
		t.Fatalf("Analyze returned %d items for %d addresses", len(items), len(rest))
	}
	for i, it := range items {
		if it.Report.Address != rest[i] {
			t.Fatalf("item %d is %s, want %s", i, it.Report.Address.Hex(), rest[i].Hex())
		}
	}
	if an.StoreErrors() == 0 {
		t.Fatal("no store errors counted although every append failed")
	}
}
