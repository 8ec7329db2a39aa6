package oracle

import (
	"sync"
	"testing"
)

func TestMonotonic(t *testing.T) {
	o := New()
	prev := uint64(0)
	for i := 0; i < 1000; i++ {
		ts := o.Next()
		if ts <= prev {
			t.Fatalf("non-monotonic: %d after %d", ts, prev)
		}
		prev = ts
	}
	if o.Last() != prev {
		t.Fatalf("Last %d != %d", o.Last(), prev)
	}
}

func TestConcurrentUnique(t *testing.T) {
	o := New()
	const workers, each = 16, 2000
	out := make([][]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < each; j++ {
				out[i] = append(out[i], o.Next())
			}
		}(w)
	}
	wg.Wait()
	seen := make(map[uint64]bool, workers*each)
	for _, ts := range out {
		for _, v := range ts {
			if seen[v] {
				t.Fatalf("duplicate timestamp %d", v)
			}
			seen[v] = true
		}
	}
	if len(seen) != workers*each {
		t.Fatalf("issued %d, want %d", len(seen), workers*each)
	}
}

func TestAdvanceTo(t *testing.T) {
	o := New()
	o.Next()
	o.AdvanceTo(100)
	if ts := o.Next(); ts <= 100 {
		t.Fatalf("Next after AdvanceTo(100) = %d", ts)
	}
	o.AdvanceTo(50) // never regresses
	if o.Last() <= 100 {
		t.Fatalf("AdvanceTo regressed to %d", o.Last())
	}
}
