package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestDebugPprofOptIn(t *testing.T) {
	// /debug/pprof stays unmounted unless opted in.
	off := httptest.NewServer(New(nil, nil).Handler())
	t.Cleanup(off.Close)
	if _, resp := get(t, off.URL+"/debug/pprof/"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/pprof/ mounted without opt-in: %d", resp.StatusCode)
	}

	s := New(nil, nil)
	s.DebugPprof = true
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	body, resp := get(t, ts.URL+"/debug/pprof/")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/ with opt-in = %d", resp.StatusCode)
	}
	if !strings.Contains(body, "goroutine") {
		t.Fatal("pprof index missing profile links")
	}
	// The handlers run behind the RED middleware: the scrape shows up
	// under the family's single route label.
	mbody, _ := get(t, ts.URL+"/metrics")
	if !strings.Contains(mbody, `route="/debug/pprof/"`) {
		t.Fatal("debug pprof requests invisible to RED metrics")
	}
}

func TestStartDebugPprof(t *testing.T) {
	run, err := StartDebugPprof("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	body, resp := get(t, "http://"+run.Addr().String()+"/debug/pprof/")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "heap") {
		t.Fatalf("pprof index = %d", resp.StatusCode)
	}
	// Fail fast on an unusable address — the flag-validation contract.
	if _, err := StartDebugPprof("256.0.0.1:99999", nil); err == nil {
		t.Fatal("bad address accepted")
	}
}
