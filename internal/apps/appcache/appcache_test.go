package appcache

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestGetBuildsOncePerKey(t *testing.T) {
	var c Cache[int, *int]
	var builds atomic.Int32
	build := func(v int) func() *int {
		return func() *int { builds.Add(1); return &v }
	}
	a := c.Get(1, build(10))
	if b := c.Get(1, build(99)); b != a || *b != 10 {
		t.Fatalf("second Get of key 1 = %v, want the first build's %v", *b, *a)
	}
	if d := c.Get(2, build(20)); *d != 20 {
		t.Fatalf("Get of key 2 = %d, want 20", *d)
	}
	if n := builds.Load(); n != 2 {
		t.Fatalf("%d builds for 2 keys", n)
	}
}

func TestConcurrentGetSharesOneBuild(t *testing.T) {
	var c Cache[string, *[]int]
	var builds atomic.Int32
	const workers = 8
	got := make([]*[]int, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = c.Get("k", func() *[]int {
				builds.Add(1)
				s := make([]int, 1<<16)
				return &s
			})
		}(i)
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d builds for one key", n)
	}
	for i := range got {
		if got[i] != got[0] {
			t.Fatalf("worker %d got a different instance", i)
		}
	}
}

func TestPanickingBuildPanicsEveryTime(t *testing.T) {
	var c Cache[int, int]
	for i := 0; i < 2; i++ {
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Fatalf("call %d recovered %v, want boom", i, r)
				}
			}()
			c.Get(1, func() int { panic("boom") })
		}()
	}
}

func TestRunScopedKeepsValuesUntilLastRunEnds(t *testing.T) {
	c := RunScoped[int, *int]()
	var builds atomic.Int32
	get := func() *int {
		return c.Get(1, func() *int { builds.Add(1); v := 1; return &v })
	}
	outside := get() // built outside any run: kept until the next run ends
	endA := StartRun()
	if get() != outside {
		t.Fatal("a run rebuilt a value built before it started")
	}
	endB := StartRun()
	endA()
	endA() // a second call must not end run B
	if get() != outside {
		t.Fatal("value dropped while run B was still open")
	}
	endB()
	if get() == outside {
		t.Fatal("value kept after the last run ended")
	}
	if n := builds.Load(); n != 2 {
		t.Fatalf("%d builds, want 2", n)
	}

	var plain Cache[int, *int]
	v := plain.Get(1, func() *int { v := 2; return &v })
	StartRun()()
	if plain.Get(1, func() *int { return nil }) != v {
		t.Fatal("ending a run dropped a process-lifetime value")
	}
}
