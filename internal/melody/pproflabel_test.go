package melody

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestExecutePprofLabels pins the label plumbing: while Execute runs,
// the executing goroutines carry spec_hash and experiment pprof labels
// (set via pprof.Do in Execute and Engine.Run and inherited by the
// runner's workers). The goroutine profile records labels without
// needing CPU samples, so the check is deterministic.
func TestExecutePprofLabels(t *testing.T) {
	sp := tracingSpec()
	hash, err := sp.Normalized().Hash()
	if err != nil {
		t.Fatal(err)
	}

	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	hooks := ExecHooks{
		// Progress fires from inside the experiment's labeled scope; hold
		// the run there while the main goroutine snapshots.
		Progress: func(string, int, int) {
			once.Do(func() { close(started) })
			<-release
		},
	}

	done := make(chan error, 1)
	go func() {
		_, err := Execute(context.Background(), sp, hooks)
		done <- err
	}()
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("run never reached a progress callback")
	}

	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	sets := goroutineLabelSets(t, buf.String())
	if !hasLabel(sets, "spec_hash", hash) {
		t.Fatalf("no goroutine carried spec_hash=%s; label sets: %v", hash, sets)
	}
	if !hasLabel(sets, "experiment", "fig8f") {
		t.Fatalf("no goroutine carried experiment=fig8f; label sets: %v", sets)
	}
}

// goroutineLabelSets decodes the `# labels: {"k":"v", ...}` lines of a
// debug=1 goroutine profile.
func goroutineLabelSets(t *testing.T, profile string) []map[string]string {
	t.Helper()
	var sets []map[string]string
	for _, line := range strings.Split(profile, "\n") {
		raw, ok := strings.CutPrefix(line, "# labels: ")
		if !ok {
			continue
		}
		var set map[string]string
		if err := json.Unmarshal([]byte(raw), &set); err != nil {
			t.Fatalf("labels line %q: %v", line, err)
		}
		sets = append(sets, set)
	}
	return sets
}

func hasLabel(sets []map[string]string, key, want string) bool {
	for _, set := range sets {
		if set[key] == want {
			return true
		}
	}
	return false
}

// TestManifestParityProfilingOnOff pins that host profiling is
// observation of the process, never of the simulation: the same spec
// run with CPU profiling active and mutex/block profiling rates raised
// — what a /debug/pprof user can switch on — yields a manifest
// byte-identical (under StripHostTime) to a run with profiling off.
func TestManifestParityProfilingOnOff(t *testing.T) {
	sp := tracingSpec()
	run := func() []byte {
		tel := NewTelemetry()
		out, err := Execute(context.Background(), sp, ExecHooks{Telemetry: tel})
		if err != nil {
			t.Fatal(err)
		}
		m := *out.Manifest
		m.StripHostTime()
		raw, err := EncodeManifest(m)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}

	plain := run()

	var cpu bytes.Buffer
	profiled := func() []byte {
		if err := pprof.StartCPUProfile(&cpu); err != nil {
			t.Fatal(err)
		}
		defer pprof.StopCPUProfile()
		defer runtime.SetMutexProfileFraction(runtime.SetMutexProfileFraction(1))
		runtime.SetBlockProfileRate(1)
		defer runtime.SetBlockProfileRate(0)
		return run()
	}()

	if cpu.Len() == 0 {
		t.Fatal("CPU profile is empty — parity check proved nothing")
	}
	if !bytes.Equal(plain, profiled) {
		i := 0
		for i < len(plain) && i < len(profiled) && plain[i] == profiled[i] {
			i++
		}
		t.Fatalf("manifests differ at byte %d with profiling on vs off", i)
	}
}
