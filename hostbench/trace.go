package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// cell (a simulated workload-on-config run, a device measurement point,
// or one service round trip) share Cell; Parent is the enclosing span's
// ID, or -1. Attrs carries what was counted inside the span: "units"
// is the span's work count in its layer's unit, and "dev.<module>.ns" /
// "dev.<module>.n" aggregate the device accesses made inside it.
type span struct {
	ID      int                `json:"id"`
	Name    string             `json:"name"`
	Cell    int                `json:"cell"`
	Parent  int                `json:"parent"`
	StartNs int64              `json:"start_ns"`
	EndNs   int64              `json:"end_ns"`
	Attrs   map[string]float64 `json:"attrs,omitempty"`
}

func (s span) durNs() int64 { return s.EndNs - s.StartNs }

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing. Safe for concurrent use.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	nextID int
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// id reserves a span ID, so children can name a parent that has not
// ended yet.
func (t *tracer) id() int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID - 1
}

// record stores a finished span.
func (t *tracer) record(id int, name string, cell, parent int, start, end time.Time, attrs map[string]float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: id, Name: name, Cell: cell, Parent: parent,
		StartNs: int64(start.Sub(t.origin)), EndNs: int64(end.Sub(t.origin)),
		Attrs: attrs,
	})
}

// timed runs fn as a span named name.
func (t *tracer) timed(name string, cell, parent int, attrs map[string]float64, fn func()) {
	id := t.id()
	start := time.Now()
	fn()
	t.record(id, name, cell, parent, start, time.Now(), attrs)
}

// spanMs returns the durations, in ms, of the spans named name.
func spanMs(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.durNs())/1e6)
		}
	}
	return out
}

// all returns the recorded spans ordered by ID.
func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.all() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerUnits names the unit a layer's "units" attribute counts.
var layerUnits = map[string]string{
	"cell":           "cell",
	"workload.build": "cell",
	"apps.build":     "cell",
	"core.new":       "cell",
	"core.preload":   "line",
	"core.run":       "instr",
	"mlc.point":      "point",
	"mio.run":        "run",
	"device":         "access",
	"serve.post":     "request",
	"serve.status":   "request",
	"serve.manifest": "request",
	"client.round":   "round",
}

// ladderRow is one layer's line in the ladder: its self time (span
// time its child spans and device accesses do not cover), how much work
// it did, and host ns per unit of that work.
type ladderRow struct {
	Layer  string
	SelfNs float64
	Count  float64
	Unit   string
}

func (r ladderRow) nsPerUnit() float64 {
	if r.Count == 0 {
		return 0
	}
	return r.SelfNs / r.Count
}

// ladder folds spans into per-layer self time. Device accesses become
// rows of their own, keyed by the device's module.
func ladder(spans []span) []ladderRow {
	childNs := map[int]float64{}
	for _, s := range spans {
		if s.Parent >= 0 {
			childNs[s.Parent] += float64(s.durNs())
		}
	}
	rows := map[string]*ladderRow{}
	get := func(layer, unit string) *ladderRow {
		r, ok := rows[layer]
		if !ok {
			r = &ladderRow{Layer: layer, Unit: unit}
			rows[layer] = r
		}
		return r
	}
	for _, s := range spans {
		self := float64(s.durNs()) - childNs[s.ID]
		for k, v := range s.Attrs {
			if !strings.HasPrefix(k, "dev.") {
				continue
			}
			mod, field, _ := strings.Cut(strings.TrimPrefix(k, "dev."), ".")
			d := get(mod, layerUnits["device"])
			switch field {
			case "ns":
				self -= v
				d.SelfNs += v
			case "n":
				d.Count += v
			}
		}
		r := get(s.Name, layerUnits[s.Name])
		r.SelfNs += self
		if u, ok := s.Attrs["units"]; ok {
			r.Count += u
		} else {
			r.Count++
		}
	}
	out := make([]ladderRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfNs > out[j].SelfNs })
	return out
}

// layerSelfNs returns one layer's self time from a ladder (0 if absent).
func layerSelfNs(rows []ladderRow, layer string) float64 {
	for _, r := range rows {
		if r.Layer == layer {
			return r.SelfNs
		}
	}
	return 0
}

// layerCount returns one layer's work count from a ladder.
func layerCount(rows []ladderRow, layer string) float64 {
	for _, r := range rows {
		if r.Layer == layer {
			return r.Count
		}
	}
	return 0
}

// printLadder writes the ladder as one table, in the shape of a
// zero-queue latency table: one row per level, its share, its count and
// its cost per unit.
func printLadder(w io.Writer, title string, rows []ladderRow) {
	total := 0.0
	for _, r := range rows {
		total += r.SelfNs
	}
	fmt.Fprintf(w, "\nlayer ladder: %s\n", title)
	fmt.Fprintf(w, "| %-16s | %10s | %14s | %-8s | %14s |\n", "Layer", "Self share", "Count", "Unit", "Host ns/unit")
	fmt.Fprintf(w, "|%s|%s|%s|%s|%s|\n", strings.Repeat("-", 18), strings.Repeat("-", 12), strings.Repeat("-", 16), strings.Repeat("-", 10), strings.Repeat("-", 16))
	for _, r := range rows {
		share := 0.0
		if total > 0 {
			share = r.SelfNs / total * 100
		}
		fmt.Fprintf(w, "| %-16s | %9.1f%% | %14.0f | %-8s | %14.1f |\n", r.Layer, share, r.Count, r.Unit, r.nsPerUnit())
	}
	fmt.Fprintf(w, "| %-16s | %9.1f%% | %14s | %-8s | %14s |\n", "total", 100.0, "", "", fmt.Sprintf("%.3f s", total/1e9))
}
