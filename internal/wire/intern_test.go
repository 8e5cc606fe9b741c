package wire

import (
	"fmt"
	"sync"
	"testing"
)

// TestInternConcurrentAndBounded: readers take no lock, so new labels from
// several goroutines at once must still come back canonical (run it with
// -race), and the table stops growing at maxInternEntries — a label past the
// bound still decodes, as an uncached copy.
func TestInternConcurrentAndBounded(t *testing.T) {
	old := interned.Load()
	defer interned.Store(old) // the flood below must not evict the other tests' labels
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 64; i++ {
				own := fmt.Sprintf("own-%d-%d", g, i)
				for _, label := range []string{"shared", fmt.Sprintf("shared-%d", i), own} {
					if got := Intern([]byte(label)); got != label {
						t.Errorf("Intern(%q) = %q", label, got)
					}
				}
				if lookupKind(KindBatch+1) != nil || lookupKind(KindInvalid) != nil {
					t.Error("a codec under an unassigned kind")
				}
			}
		}()
	}
	wg.Wait()
	if a, b := Intern([]byte("shared-7")), Intern([]byte("shared-7")); a != b {
		t.Error("a label interned concurrently is not canonical")
	}
	for i := 0; len(*interned.Load()) < maxInternEntries; i++ {
		Intern([]byte(fmt.Sprintf("flood-%d", i)))
	}
	if got := Intern([]byte("one-too-many")); got != "one-too-many" {
		t.Errorf("past the bound Intern returned %q", got)
	}
	if n := len(*interned.Load()); n != maxInternEntries {
		t.Errorf("intern table holds %d labels, bound is %d", n, maxInternEntries)
	}
}
