package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestErrorRateCountsMismatchAndNon2xx injects one address mismatch and
// two refused submissions (500 and 429) beside one good check.
func TestErrorRateCountsMismatchAndNon2xx(t *testing.T) {
	codes := []int{http.StatusInternalServerError, http.StatusTooManyRequests}
	var mu sync.Mutex
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		code := codes[0]
		codes = codes[1:]
		mu.Unlock()
		http.Error(w, "refused", code)
	}))
	defer ts.Close()

	tl := &tally{}
	tl.checkAddress("good", "sha256:a", "sha256:a")
	tl.checkAddress("injected", "sha256:a", "sha256:b")
	loop := &serviceLoop{base: ts.URL, client: ts.Client(), t: tl}
	for i := 0; i < 2; i++ {
		if _, _, _, ok := loop.submit(missSpec(1, 0, i), -1, -1); ok {
			t.Fatalf("submission %d answered non-2xx but was reported ok", i)
		}
	}
	attempted, failed := tl.counts()
	if attempted != 4 || failed != 3 {
		t.Fatalf("attempted %d failed %d, want 4 and 3 (reasons %q)", attempted, failed, tl.reasons)
	}
	if got := tl.errorRate(); got != 0.75 {
		t.Fatalf("error rate %g, want 0.75", got)
	}
}

// TestLimitedClientNeverExceedsConnLimit sends from more goroutines than
// the limit and checks, on the server side, how many connections were
// ever open at once.
func TestLimitedClientNeverExceedsConnLimit(t *testing.T) {
	var mu sync.Mutex
	open, peak := 0, 0
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(5 * time.Millisecond)
		fmt.Fprint(w, "ok")
	}))
	ts.Config.ConnState = func(c net.Conn, s http.ConnState) {
		mu.Lock()
		defer mu.Unlock()
		switch s {
		case http.StateNew:
			open++
			if open > peak {
				peak = open
			}
		case http.StateClosed, http.StateHijacked:
			open--
		}
	}
	ts.Start()
	defer ts.Close()

	const limit = 2
	client, counter := newLimitedClient(limit)
	var wg sync.WaitGroup
	for g := 0; g < 4*limit; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				resp, err := client.Get(ts.URL)
				if err != nil {
					t.Error(err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if peak > limit || counter.peakOpen() > limit {
		t.Fatalf("peak open connections: server saw %d, client counted %d; limit %d", peak, counter.peakOpen(), limit)
	}
	if counter.peakOpen() == 0 {
		t.Fatal("client counted no connections")
	}
}

func TestMissSpecsAreDistinctAndSeeded(t *testing.T) {
	seen := map[uint64]bool{}
	for c := 0; c < 2; c++ {
		for r := 0; r < 100; r++ {
			s := missSpec(7, c, r)
			if s.Seed < 2 || seen[s.Seed] {
				t.Fatalf("client %d round %d: seed %d repeats or is reserved", c, r, s.Seed)
			}
			seen[s.Seed] = true
			if missSpec(7, c, r).Seed != s.Seed {
				t.Fatal("miss spec is not a function of the seed")
			}
		}
	}
	if missSpec(8, 0, 0).Seed == missSpec(7, 0, 0).Seed {
		t.Fatal("miss spec ignores the benchmark seed")
	}
}
