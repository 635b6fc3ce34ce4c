package fault

import (
	"hash/fnv"
	"math/rand"

	"mgpucompress/internal/metrics"
	"mgpucompress/internal/sim"
)

// Injectable marks wire messages that sit under a retry protocol and may
// therefore be dropped, delayed, or corrupted. The interface is structural
// on purpose: the rdma package implements it without importing this one.
type Injectable interface {
	sim.Msg
	// FaultInjectable is a marker; it does nothing.
	FaultInjectable()
	// Release hands the message back to its sender's pool. The injector
	// calls it on a message it drops: nothing else will see the message
	// again.
	Release()
}

// Corruptible is implemented by payload-bearing injectable messages. Each
// transmission is a message of its own (the sender retransmits from a copy
// it keeps off the fabric), so corruption is in place.
type Corruptible interface {
	Injectable
	// Corrupt flips one payload bit, chosen by pick, in place. It reports
	// false when the message carries no payload bits.
	Corrupt(pick uint64) bool
}

// Outcome is the injector's verdict on one delivery. A message that is not
// dropped is delivered, corrupted in place or not.
type Outcome struct {
	// Dropped reports that the message was dropped and released: the
	// caller must not touch it again.
	Dropped bool
	// Delay, when nonzero, postpones delivery by that many cycles.
	Delay sim.Time
}

// Injector applies a Profile to fabric deliveries. Each (src, dst) port
// pair owns a private PRNG stream seeded from (seed, src name, dst name):
// deliveries on one link are totally ordered by the single-goroutine sim
// engine, so the draw sequence — and with it every fault — is deterministic
// and independent of what other links carry.
//
// The injector is not safe for concurrent use; like every component it is
// owned by one simulation's goroutine.
type Injector struct {
	profile Profile
	seed    int64
	links   map[linkKey]*rand.Rand

	// Counters, exposed via RegisterMetrics.
	Corrupted uint64
	Dropped   uint64
	Delayed   uint64
}

type linkKey struct{ src, dst string }

// NewInjector builds an injector for the profile. The seed is the job's
// sweep-derived seed (never wall clock).
func NewInjector(p Profile, seed int64) *Injector {
	return &Injector{profile: p, seed: seed, links: make(map[linkKey]*rand.Rand)}
}

// Profile returns the injector's profile.
func (i *Injector) Profile() Profile { return i.profile }

// Injected is the total number of fault events across all kinds.
func (i *Injector) Injected() uint64 { return i.Corrupted + i.Dropped + i.Delayed }

func (i *Injector) link(src, dst string) *rand.Rand {
	k := linkKey{src, dst}
	if r, ok := i.links[k]; ok {
		return r
	}
	h := fnv.New64a()
	h.Write([]byte(src))
	h.Write([]byte{0})
	h.Write([]byte(dst))
	r := rand.New(rand.NewSource(i.seed ^ int64(h.Sum64()&(1<<63-1))))
	i.links[k] = r
	return r
}

// Apply decides the fate of one delivery. Non-injectable messages pass
// through untouched and consume no randomness. For injectable ones, four
// draws are taken from the link's stream in a fixed order regardless of
// outcome, so the stream position depends only on the link's delivery
// sequence, never on which faults happened to fire.
func (i *Injector) Apply(msg sim.Msg) Outcome {
	inj, ok := msg.(Injectable)
	if !ok {
		return Outcome{}
	}
	rng := i.link(msg.Meta().Src.Name(), msg.Meta().Dst.Name())
	fDrop := rng.Float64()
	fDelay := rng.Float64()
	fCorrupt := rng.Float64()
	pick := rng.Uint64()

	if fDrop < i.profile.DropRate {
		i.Dropped++
		inj.Release()
		return Outcome{Dropped: true}
	}
	var out Outcome
	if fDelay < i.profile.DelayRate && i.profile.DelayCycles > 0 {
		i.Delayed++
		out.Delay = sim.Time(i.profile.DelayCycles)
	}
	if fCorrupt < i.profile.CorruptRate {
		if c, ok := msg.(Corruptible); ok && c.Corrupt(pick) {
			i.Corrupted++
		}
	}
	return out
}

// RegisterMetrics exposes the injector's counters under prefix
// (conventionally "fault"). Call it only when the profile is enabled:
// registering the paths changes snapshot bytes, and a disabled profile must
// leave snapshots byte-identical to a build without fault injection.
func (i *Injector) RegisterMetrics(reg *metrics.Registry, prefix string) {
	reg.CounterFunc(prefix+"/injected", func() uint64 { return i.Injected() })
	reg.CounterFunc(prefix+"/corrupted", func() uint64 { return i.Corrupted })
	reg.CounterFunc(prefix+"/dropped", func() uint64 { return i.Dropped })
	reg.CounterFunc(prefix+"/delayed", func() uint64 { return i.Delayed })
}
