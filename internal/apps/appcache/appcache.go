// Package appcache keeps app state that is expensive to build and
// read-only once built — a populated hash table, a sorted index, a
// synthetic graph — one instance per key. Addresses in that state are
// deterministic functions of the key, so sharing it across runs and
// workers cannot change what a run computes.
//
// A Cache's zero value keeps its values for the life of the process.
// A cache made by RunScoped keeps them only while a run is open (see
// StartRun), so state that is cheap to rebuild relative to the memory
// it holds does not stay resident in an idle long-lived process.
package appcache

import "sync"

// Cache maps a key to a value built at most once while it is kept.
type Cache[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]func() V
}

// Get returns the value for key, calling build the first time the key
// is asked for. Concurrent callers of one key wait for its single
// build; callers of different keys build in parallel. If build panics,
// every call for that key panics with the same value.
func (c *Cache[K, V]) Get(key K, build func() V) V {
	c.mu.Lock()
	get, ok := c.m[key]
	if !ok {
		if c.m == nil {
			c.m = map[K]func() V{}
		}
		get = sync.OnceValue(build)
		c.m[key] = get
	}
	c.mu.Unlock()
	return get()
}

// forget drops every value; callers already holding one keep it.
func (c *Cache[K, V]) forget() {
	c.mu.Lock()
	c.m = nil
	c.mu.Unlock()
}

var (
	runMu  sync.Mutex
	open   int
	scoped []interface{ forget() }
)

// RunScoped returns a cache whose values are dropped whenever the last
// open run ends.
func RunScoped[K comparable, V any]() *Cache[K, V] {
	c := &Cache[K, V]{}
	runMu.Lock()
	scoped = append(scoped, c)
	runMu.Unlock()
	return c
}

// StartRun opens a run and returns the function that ends it; calling
// that function again does nothing. Values a run-scoped cache builds
// are shared by every run open at the time and kept until the last of
// them ends — those built outside any run, until the next run ends.
func StartRun() (end func()) {
	runMu.Lock()
	open++
	runMu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			runMu.Lock()
			defer runMu.Unlock()
			if open--; open == 0 {
				for _, c := range scoped {
					c.forget()
				}
			}
		})
	}
}
