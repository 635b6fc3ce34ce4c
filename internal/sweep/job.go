// Package sweep is the experiment-orchestration engine: it schedules
// simulation jobs across a bounded worker pool, memoizes results by job
// fingerprint so shared runs are simulated exactly once per process, and
// streams completed results to a JSONL journal so an interrupted sweep can
// be resumed by replaying the file.
//
// The engine is deliberately simulator-agnostic: it knows nothing about the
// runner or the platform. A job is identified by a canonical JobKey; what a
// job *does* is an injected function, and the result type is a type
// parameter. internal/runner provides the binding to the simulator.
//
// Determinism contract: the engine never reorders results — fan-out calls
// return results in the caller's key order — and every job derives its seed
// from its fingerprint, so a 1-worker sweep and a 16-worker sweep produce
// identical artifacts.
package sweep

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
)

// JobKey canonically identifies one simulation run. The zero value of every
// field means "the paper's default"; keys should be normalized by the layer
// that constructs them (e.g. policy "" vs "none") so that equal runs hash
// equally.
type JobKey struct {
	// Workload is the Table IV benchmark abbreviation (AES, BS, ...).
	Workload string `json:"workload"`
	// Policy is the compression policy spec ("none", "fpc", "bdi",
	// "cpackz", "adaptive", "dynamic", "adaptive-global").
	Policy string `json:"policy,omitempty"`
	// Lambda is the adaptive λ of Eq. (1).
	Lambda float64 `json:"lambda,omitempty"`
	// Scale is the workload input scale.
	Scale int `json:"scale,omitempty"`
	// CUsPerGPU overrides the platform CU count (0 = default).
	CUsPerGPU int `json:"cus,omitempty"`
	// NumGPUs overrides the GPU count (0 = the paper's 4).
	NumGPUs int `json:"gpus,omitempty"`
	// Topology selects the fabric implementation ("" = shared bus).
	Topology string `json:"topology,omitempty"`
	// Link is the fabric energy class (energy.LinkClass ordinal; 0 = MCM
	// default).
	Link int `json:"link,omitempty"`
	// RemoteCache enables the L1.5 remote-data cache extension.
	RemoteCache bool `json:"remote_cache,omitempty"`
	// FabricBytesPerCycle overrides the link width (0 = 20 B/cycle).
	FabricBytesPerCycle int `json:"fabric_bpc,omitempty"`
	// Characterize runs every codec on every transferred line (Tables V/VI).
	Characterize bool `json:"characterize,omitempty"`
	// SeriesLimit collects the first N transfers as a Fig. 1 series.
	SeriesLimit int `json:"series_limit,omitempty"`

	// SampleCount, RunLength and Candidates select a custom adaptive
	// controller configuration (ablations). Candidates are algorithm names
	// in canonical order; empty means the paper's candidate set.
	SampleCount int      `json:"sample_count,omitempty"`
	RunLength   int      `json:"run_length,omitempty"`
	Candidates  []string `json:"candidates,omitempty"`

	// SeedOverride pins the job's seed instead of deriving it from the
	// fingerprint (0 = derive). It participates in the canonical form only
	// when set, so keys predating the field keep their fingerprints.
	SeedOverride int64 `json:"seed_override,omitempty"`

	// FaultProfile is the canonical fault-injection profile string
	// (fault.Profile.Canonical(); "" = no injection). Like SeedOverride it
	// joins the canonical form only when set, preserving pre-existing
	// fingerprints for fault-free jobs.
	FaultProfile string `json:"fault_profile,omitempty"`
}

// Canonical returns the canonical textual form of the key: every field in a
// fixed order, independent of how the key was built. It is the preimage of
// Fingerprint and doubles as a human-readable job description.
func (k JobKey) Canonical() string {
	var b strings.Builder
	fmt.Fprintf(&b, "wl=%s|pol=%s|lam=%g|scale=%d|cus=%d|gpus=%d|topo=%s|link=%d",
		k.Workload, k.Policy, k.Lambda, k.Scale, k.CUsPerGPU, k.NumGPUs, k.Topology, k.Link)
	fmt.Fprintf(&b, "|rc=%t|bpc=%d|char=%t|series=%d|samp=%d|runlen=%d",
		k.RemoteCache, k.FabricBytesPerCycle, k.Characterize, k.SeriesLimit,
		k.SampleCount, k.RunLength)
	if len(k.Candidates) > 0 {
		b.WriteString("|cand=")
		b.WriteString(strings.Join(k.Candidates, ","))
	}
	if k.SeedOverride != 0 {
		fmt.Fprintf(&b, "|seed=%d", k.SeedOverride)
	}
	if k.FaultProfile != "" {
		fmt.Fprintf(&b, "|fault=%s", k.FaultProfile)
	}
	return b.String()
}

// Fingerprint returns the 64-bit FNV-1a hash of the canonical form as fixed
// width hex. It is the cache key, the journal correlation ID, and the basis
// of the per-job seed.
func (k JobKey) Fingerprint() string {
	h := fnv.New64a()
	h.Write([]byte(k.Canonical()))
	return fmt.Sprintf("%016x", h.Sum64())
}

// Seed derives the deterministic per-job seed from the fingerprint. Two
// sweeps — or two shards of one sweep on different machines — always hand a
// given job the same seed, so stochastic components reproduce regardless of
// scheduling. The seed basis is domain-separated from Fingerprint so the
// two values are not trivially equal. A SeedOverride short-circuits the
// derivation.
func (k JobKey) Seed() int64 {
	if k.SeedOverride != 0 {
		return k.SeedOverride
	}
	h := fnv.New64a()
	h.Write([]byte("seed/"))
	h.Write([]byte(k.Canonical()))
	return int64(h.Sum64() & (1<<63 - 1)) // keep it non-negative for rand sources
}

// String abbreviates the key for progress lines: benchmark, policy and the
// non-default knobs.
func (k JobKey) String() string {
	var parts []string
	parts = append(parts, k.Workload)
	if k.Policy != "" && k.Policy != "none" {
		p := k.Policy
		if k.Lambda != 0 {
			p += fmt.Sprintf(" λ=%g", k.Lambda)
		}
		parts = append(parts, p)
	}
	if k.Characterize {
		parts = append(parts, "characterize")
	}
	if k.SeriesLimit > 0 {
		parts = append(parts, fmt.Sprintf("series=%d", k.SeriesLimit))
	}
	if len(k.Candidates) > 0 {
		parts = append(parts, "cand="+strings.Join(k.Candidates, ","))
	}
	if k.SampleCount > 0 || k.RunLength > 0 {
		parts = append(parts, fmt.Sprintf("geom=%d/%d", k.SampleCount, k.RunLength))
	}
	if k.FaultProfile != "" {
		parts = append(parts, "fault="+k.FaultProfile)
	}
	return strings.Join(parts, " ")
}

// Dedup returns the keys with fingerprint duplicates removed, preserving
// first-occurrence order. Artifact plans overlap heavily (Fig. 7 re-uses
// every Fig. 5 and Fig. 6 run); Dedup sizes the real work.
func Dedup(keys []JobKey) []JobKey {
	seen := make(map[string]bool, len(keys))
	out := keys[:0:0]
	for _, k := range keys {
		fp := k.Fingerprint()
		if seen[fp] {
			continue
		}
		seen[fp] = true
		out = append(out, k)
	}
	return out
}

// SortCanonical orders keys by their canonical form. Useful when a caller
// wants a stable on-disk plan independent of construction order.
func SortCanonical(keys []JobKey) {
	sort.Slice(keys, func(i, j int) bool {
		return keys[i].Canonical() < keys[j].Canonical()
	})
}
