// Package metrics is the unified observability layer of the simulator: a
// typed, allocation-light registry in which every component — the event
// engine, the fabric, caches, DRAM channels, RDMA engines, compression
// controllers — registers its counters under a hierarchical slash-separated
// path ("gpu1/l2_0/hits", "fabric/bytes", "ctrl3/sampling_rounds") at
// construction time.
//
// A Snapshot freezes every registered metric into a sorted, JSON-stable
// sample list. Because components register closures over the same counter
// fields they already maintain, a snapshot equals the hand-aggregated stats
// by construction — there is exactly one source of truth per counter, so
// the reporting layers (platform.Stats, runner.Result, sweep journals)
// cannot double count.
//
// Determinism contract: snapshots of equal simulations marshal to identical
// bytes. Sample order is the sorted path order (never map order), values
// are pure functions of the simulation, and the registry records no wall
// time.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"path"
	"sort"
	"strings"
)

// Metric kinds as they appear in Sample.Kind.
const (
	KindCounter = "counter"
	KindGauge   = "gauge"
	KindDist    = "dist"
)

// Counter is a monotonically increasing count.
type Counter struct{ n uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.n++ }

// Add adds n.
func (c *Counter) Add(n uint64) { c.n += n }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Gauge is an instantaneous value.
type Gauge struct{ v float64 }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.v = v }

// Add adjusts the value by d.
func (g *Gauge) Add(d float64) { g.v += d }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v }

// DistValue is the frozen summary of a distribution.
type DistValue struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
}

// Mean returns Sum/Count (0 when empty).
func (d DistValue) Mean() float64 {
	if d.Count == 0 {
		return 0
	}
	return d.Sum / float64(d.Count)
}

// Distribution accumulates observations into a constant-space summary.
type Distribution struct{ d DistValue }

// Observe folds one value in.
func (t *Distribution) Observe(v float64) {
	if t.d.Count == 0 || v < t.d.Min {
		t.d.Min = v
	}
	if t.d.Count == 0 || v > t.d.Max {
		t.d.Max = v
	}
	t.d.Count++
	t.d.Sum += v
}

// Value returns the current summary.
func (t *Distribution) Value() DistValue { return t.d }

// Sample is one metric frozen at snapshot time. For counters and gauges the
// measurement is Value; for distributions it is Dist (Value then carries the
// sum, so aggregation helpers work uniformly).
type Sample struct {
	Path  string     `json:"path"`
	Kind  string     `json:"kind"`
	Value float64    `json:"value"`
	Dist  *DistValue `json:"dist,omitempty"`
}

// Registry maps hierarchical paths to metrics. It is not safe for
// concurrent use: like the simulation engine, it belongs to a single
// simulation goroutine. The zero value is not usable; call NewRegistry.
type Registry struct {
	paths []string
	read  map[string]func() Sample
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{read: make(map[string]func() Sample)}
}

// Len returns the number of registered metrics.
func (r *Registry) Len() int { return len(r.paths) }

func (r *Registry) register(p, kind string, read func() Sample) {
	if p == "" || strings.HasPrefix(p, "/") || strings.HasSuffix(p, "/") {
		panic(fmt.Sprintf("metrics: invalid path %q", p))
	}
	if _, dup := r.read[p]; dup {
		panic(fmt.Sprintf("metrics: duplicate path %q", p))
	}
	r.paths = append(r.paths, p)
	r.read[p] = read
}

// Counter registers and returns an owned counter at p.
func (r *Registry) Counter(p string) *Counter {
	c := &Counter{}
	r.CounterFunc(p, c.Value)
	return c
}

// CounterFunc registers a counter read through fn — the form components use
// to expose a counter field they already maintain, keeping one source of
// truth per count.
func (r *Registry) CounterFunc(p string, fn func() uint64) {
	r.register(p, KindCounter, func() Sample {
		return Sample{Path: p, Kind: KindCounter, Value: float64(fn())}
	})
}

// Gauge registers and returns an owned gauge at p.
func (r *Registry) Gauge(p string) *Gauge {
	g := &Gauge{}
	r.GaugeFunc(p, g.Value)
	return g
}

// GaugeFunc registers a gauge read through fn.
func (r *Registry) GaugeFunc(p string, fn func() float64) {
	r.register(p, KindGauge, func() Sample {
		return Sample{Path: p, Kind: KindGauge, Value: fn()}
	})
}

// Distribution registers and returns an owned distribution at p.
func (r *Registry) Distribution(p string) *Distribution {
	d := &Distribution{}
	r.DistributionFunc(p, d.Value)
	return d
}

// DistributionFunc registers a distribution read through fn.
func (r *Registry) DistributionFunc(p string, fn func() DistValue) {
	r.register(p, KindDist, func() Sample {
		d := fn()
		return Sample{Path: p, Kind: KindDist, Value: d.Sum, Dist: &d}
	})
}

// Snapshot freezes every metric into a path-sorted sample list.
func (r *Registry) Snapshot() Snapshot {
	paths := append([]string(nil), r.paths...)
	sort.Strings(paths)
	s := make(Snapshot, 0, len(paths))
	for _, p := range paths {
		s = append(s, r.read[p]())
	}
	return s
}

// Snapshot is a path-sorted, JSON-round-trippable view of a registry at one
// instant. Equal simulations produce byte-identical marshals regardless of
// worker count or scheduling.
type Snapshot []Sample

// Get returns the sample at path, if present.
func (s Snapshot) Get(path string) (Sample, bool) {
	i := sort.Search(len(s), func(i int) bool { return s[i].Path >= path })
	if i < len(s) && s[i].Path == path {
		return s[i], true
	}
	return Sample{}, false
}

// Value returns the measurement at path (0 when absent).
func (s Snapshot) Value(path string) float64 {
	smp, ok := s.Get(path)
	if !ok {
		return 0
	}
	return smp.Value
}

// glob is a slash-structured glob pattern ("gpu*/l1_*/hits") prepared for
// matching many sample paths: a '*' or '?' never crosses a path separator,
// exactly as in path.Match, which decides every match. Two necessary
// conditions of a match, derived once from the pattern, reject most paths
// before path.Match runs, so the result is path.Match's by construction:
//   - without a character class (which may match '/'), every '/' of a
//     matching path comes from a '/' of the pattern, so their counts agree;
//   - when the pattern's last segment holds no metacharacter (and no ']',
//     which would put its '/' inside a class), a matching path ends in that
//     literal after its last '/'.
type glob struct {
	pattern string
	slashes int // '/' count of every match, -1 when unknown
	last    string
	literal bool // every match's last segment is last
}

func newGlob(pattern string) glob {
	g := glob{pattern: pattern, slashes: -1}
	if strings.IndexByte(pattern, '[') < 0 {
		g.slashes = strings.Count(pattern, "/")
	}
	last := pattern[strings.LastIndexByte(pattern, '/')+1:]
	if !strings.ContainsAny(last, `*?[\]`) {
		g.last, g.literal = last, true
	}
	return g
}

// match reports whether the sample path p matches the pattern; a malformed
// pattern matches nothing.
func (g *glob) match(p string) bool {
	if g.literal && p[strings.LastIndexByte(p, '/')+1:] != g.last {
		return false
	}
	if g.slashes >= 0 && strings.Count(p, "/") != g.slashes {
		return false
	}
	ok, err := path.Match(g.pattern, p)
	return err == nil && ok
}

// SumMatch sums the measurements of every sample whose path matches the
// glob pattern (for distributions, their sums).
func (s Snapshot) SumMatch(pattern string) float64 {
	g := newGlob(pattern)
	total := 0.0
	for _, smp := range s {
		if g.match(smp.Path) {
			total += smp.Value
		}
	}
	return total
}

// CountMatch returns how many sample paths match the glob pattern.
func (s Snapshot) CountMatch(pattern string) int {
	g := newGlob(pattern)
	n := 0
	for _, smp := range s {
		if g.match(smp.Path) {
			n++
		}
	}
	return n
}

// Diff returns the samples of s that are new or changed relative to prev —
// the incremental form a live stream sends per event instead of repeating
// the whole registry. Both snapshots must be path-sorted (as Registry
// produces them); the result preserves s's path order, so streaming a
// sequence of diffs is as deterministic as streaming the snapshots
// themselves. A metric absent from s but present in prev is simply omitted:
// registries only grow, so deletion does not occur in practice.
func (s Snapshot) Diff(prev Snapshot) Snapshot {
	var out Snapshot
	i := 0
	for _, smp := range s {
		for i < len(prev) && prev[i].Path < smp.Path {
			i++
		}
		if i < len(prev) && prev[i].Path == smp.Path && sampleEqual(prev[i], smp) {
			continue
		}
		out = append(out, smp)
	}
	return out
}

func sampleEqual(a, b Sample) bool {
	if a.Kind != b.Kind || a.Value != b.Value {
		return false
	}
	switch {
	case a.Dist == nil && b.Dist == nil:
		return true
	case a.Dist == nil || b.Dist == nil:
		return false
	default:
		return *a.Dist == *b.Dist
	}
}

// WriteJSON writes the snapshot as indented JSON with a trailing newline —
// the -metrics-out file format. The bytes are a pure function of the
// snapshot, so equal runs diff clean.
func (s Snapshot) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}
