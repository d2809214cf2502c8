package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"sync"
)

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks (the definition numpy and Python's
// statistics.quantiles(method="inclusive") share). It returns 0 for an
// empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// mean returns the arithmetic mean of xs, or 0 for an empty sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailLevels are the percentiles a tail may be reported at, highest
// first.
var tailLevels = []float64{99.9, 99, 90, 50}

// tailPercentile picks the highest percentile that leaves at least ten
// samples beyond it, so a reported tail is never one or two outliers.
// With fewer than twenty samples no level qualifies and it returns 0:
// the caller reports the median alone.
func tailPercentile(n int) float64 {
	for _, p := range tailLevels {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			return p
		}
	}
	return 0
}

// tail reports xs at tailPercentile(len(xs)), falling back to the
// median when the sample is too small for any tail. It returns the
// value and the level used.
func tail(xs []float64) (float64, float64) {
	p := tailPercentile(len(xs))
	if p == 0 {
		p = 50
	}
	return percentile(xs, p), p
}

// metricName is the grammar every reported metric name follows.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func validName(name string) bool { return metricName.MatchString(name) }

// tally counts attempted and failed operations. An operation fails when
// its output is wrong or the system refused it; the first few failures
// are kept for the report. Safe for concurrent use.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	reasons   []string
}

// check records one attempted operation that failed unless ok, and
// returns ok.
func (t *tally) check(ok bool, format string, args ...any) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if ok {
		return true
	}
	t.failed++
	if len(t.reasons) < 8 {
		t.reasons = append(t.reasons, fmt.Sprintf(format, args...))
	}
	return false
}

// counts returns attempted and failed.
func (t *tally) counts() (int, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempted, t.failed
}

// errorRate is failed / attempted (0 before any attempt).
func (t *tally) errorRate() float64 {
	a, f := t.counts()
	if a == 0 {
		return 0
	}
	return float64(f) / float64(a)
}

// checkAddress counts one experiment run whose stripped-manifest
// address must equal want.
func (t *tally) checkAddress(what, got, want string) {
	t.check(got == want, "%s: manifest address %s, want %s", what, got, want)
}

// checkStatus counts one HTTP answer, which must be 2xx. A 429 is a
// refusal and counts as failed like any other non-2xx code.
func (t *tally) checkStatus(what string, code int) bool {
	return t.check(code >= 200 && code < 300, "%s: HTTP %d", what, code)
}
