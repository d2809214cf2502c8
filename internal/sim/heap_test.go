package sim

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeHeapOrdering(t *testing.T) {
	h := &TimeHeap{}
	in := []float64{5, 3, 8, 1, 9, 2, 7}
	for _, v := range in {
		h.Push(v)
	}
	sorted := append([]float64(nil), in...)
	sort.Float64s(sorted)
	for _, want := range sorted {
		if got := h.PopMin(); got != want {
			t.Fatalf("PopMin = %v, want %v", got, want)
		}
	}
	if h.Len() != 0 {
		t.Fatalf("heap not empty after draining: %d", h.Len())
	}
}

func TestTimeHeapReplaceMin(t *testing.T) {
	h := NewTimeHeap(4)
	// All four servers free at t=0; occupy earliest until t=10, 20, 5, 1.
	for _, busy := range []float64{10, 20, 5, 1} {
		h.ReplaceMin(busy)
	}
	if got := h.Min(); got != 1 {
		t.Fatalf("Min = %v, want 1", got)
	}
	h.ReplaceMin(100)
	if got := h.Min(); got != 5 {
		t.Fatalf("Min after replace = %v, want 5", got)
	}
}

func TestTimeHeapPropertySorted(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		h := &TimeHeap{}
		for _, v := range vals {
			h.Push(v)
		}
		prev := h.PopMin()
		for h.Len() > 0 {
			cur := h.PopMin()
			if cur < prev && !(cur != cur) { // tolerate NaN from fuzzing
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNewTimeHeapAllFree(t *testing.T) {
	h := NewTimeHeap(8)
	if h.Len() != 8 {
		t.Fatalf("Len = %d, want 8", h.Len())
	}
	if h.Min() != 0 {
		t.Fatalf("Min = %v, want 0", h.Min())
	}
}

func TestTimeHeapResetEmpties(t *testing.T) {
	h := NewTimeHeap(3)
	h.Push(7)
	h.Reset()
	if h.Len() != 0 {
		t.Fatalf("Len after Reset = %d, want 0", h.Len())
	}
	h.Push(4)
	h.Push(2)
	if got := h.PopMin(); got != 2 || h.Len() != 1 {
		t.Fatalf("PopMin after Reset = %v (Len %d), want 2 (Len 1)", got, h.Len())
	}
}
