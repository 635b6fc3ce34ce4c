// Package schedbench generates synthetic multi-partition event schedules for
// benchmarking and property-testing the engine's window scheduler. The three
// shapes cover the regimes where window policy matters:
//
//   - idle-heavy: short, widely spaced bursts per partition, so most of the
//     run is one partition working alone between long quiet stretches;
//   - bursty: long dense bursts separated by idle gaps, ending in a cross
//     send, so the scheduler must merge thousands of one-cycle steps;
//   - serial-phase: one partition does nearly all the work and occasionally
//     pokes a neighbour, the single-partition-dominant extreme.
//
// Every schedule is a pure function of its seed: nodes carry their own
// xorshift state, all scheduling decisions derive from it, and the run folds
// each dispatched event into a per-partition digest. Two runs agree on the
// combined digest if and only if they dispatched the same events at the same
// times in the same per-partition order — which is exactly the engine's
// byte-identity contract across window policies.
package schedbench

import (
	"fmt"
	"math/rand"

	"mgpucompress/internal/metrics"
	"mgpucompress/internal/sim"
)

// Shape names a synthetic schedule shape.
type Shape string

// The supported shapes.
const (
	IdleHeavy   Shape = "idle-heavy"
	Bursty      Shape = "bursty"
	SerialPhase Shape = "serial-phase"
)

// Shapes lists every shape, in report order.
var Shapes = []Shape{IdleHeavy, Bursty, SerialPhase}

// numNodes matches the platform's partition count (four GPUs plus the hub).
const numNodes = 5

// LinkLatency is the declared minimum latency of every ring link; the fixed
// baseline uses it as the classic lookahead.
const LinkLatency sim.Time = 4

// Result summarizes one run of a synthetic schedule.
type Result struct {
	Shape           Shape
	Digest          uint64
	Cycles          sim.Time
	Events          uint64
	Windows         uint64
	SerialWindows   uint64
	BarrierWindows  uint64
	RemoteMsgs      uint64
	EventsPerWindow float64
}

// segment is one self-driven activity phase of a node: wait idle cycles,
// then dispatch burst events gap cycles apart, then (optionally) send a
// token to a ring neighbour.
type segment struct {
	idle  sim.Time
	burst int
	gap   sim.Time
	send  bool
}

// node is one partition's component: it walks its program of segments and
// reacts to tokens from its neighbours. All state is partition-local.
type node struct {
	part   *sim.Partition
	peers  []*node
	out    []*sim.Remote // links to peers, same order
	rng    uint64
	digest uint64

	program []segment
	next    int

	burstLeft int
	gap       sim.Time
	send      bool
}

// token is the handler of a cross arrival at node n, which may forward it
// while its ttl (the record's argument) lasts; the node's own Handle advances
// its burst.
type token struct{ n *node }

// rand steps the node's xorshift64 state.
func (n *node) rand() uint64 {
	x := n.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	n.rng = x
	return x
}

// mix folds one dispatched event into the node's digest.
func (n *node) mix(now sim.Time, tag uint64) {
	h := n.digest ^ (uint64(now) * 0x9e3779b97f4a7c15) ^ tag
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 29
	n.digest = h
}

// Handle implements sim.Handler: one step of the node's burst.
func (n *node) Handle(e *sim.Event) error {
	now := e.Time()
	n.mix(now, 1)
	if n.burstLeft == 0 {
		// Segment start: load the next program entry.
		seg := n.program[n.next]
		n.next++
		n.burstLeft = seg.burst
		n.gap = seg.gap
		n.send = seg.send
	}
	n.burstLeft--
	if n.burstLeft > 0 {
		n.part.ScheduleTick(now+n.gap, n)
		return nil
	}
	if n.send {
		n.sendToken(now, int(n.rand()%3))
	}
	if n.next < len(n.program) {
		n.part.ScheduleTick(now+n.program[n.next].idle, n)
	}
	return nil
}

// Handle implements sim.Handler for a token arriving at the node.
func (tk token) Handle(e *sim.Event) error {
	n, now, ttl := tk.n, e.Time(), e.Arg()
	n.mix(now, 2)
	// Forward the token around the ring while its ttl lasts, so cross
	// traffic forms short causal cascades rather than single hops.
	if ttl > 0 && n.rand()%2 == 0 {
		n.sendToken(now, ttl-1)
	}
	return nil
}

// sendToken emits a token to a random peer at the link latency plus jitter.
func (n *node) sendToken(now sim.Time, ttl int) {
	i := int(n.rand()) % len(n.peers)
	if i < 0 {
		i = -i
	}
	dst := n.peers[i]
	t := now + LinkLatency + sim.Time(n.rand()%4)
	n.out[i].Schedule(t, token{dst}, nil, ttl)
}

// program builds a node's segment list for the shape from the generator rng.
func program(shape Shape, idx int, rng *rand.Rand) []segment {
	var segs []segment
	switch shape {
	case IdleHeavy:
		// Jittered round-robin slots: node i's k-th burst lands near slot
		// (k*numNodes+i), so activity hands off between partitions instead of
		// piling up — the pipeline-phase pattern where adaptive windows win.
		const pitch = 400
		cursor := sim.Time(0)
		for k := 0; k < 30; k++ {
			start := sim.Time((k*numNodes+idx)*pitch + rng.Intn(120))
			idle := sim.Time(1)
			if start > cursor {
				idle = start - cursor
			}
			seg := segment{
				idle:  idle,
				burst: 60 + rng.Intn(40),
				gap:   sim.Time(2 + rng.Intn(3)),
				send:  rng.Intn(10) < 4,
			}
			segs = append(segs, seg)
			cursor += idle + sim.Time(seg.burst)*seg.gap
		}
	case Bursty:
		const pitch = 700
		cursor := sim.Time(0)
		for k := 0; k < 20; k++ {
			start := sim.Time((k*numNodes+idx)*pitch + rng.Intn(150))
			idle := sim.Time(1)
			if start > cursor {
				idle = start - cursor
			}
			seg := segment{
				idle:  idle,
				burst: 300 + rng.Intn(200),
				gap:   1,
				send:  true,
			}
			segs = append(segs, seg)
			cursor += idle + sim.Time(seg.burst)*seg.gap
		}
	case SerialPhase:
		if idx == 0 {
			for i := 0; i < 8; i++ {
				segs = append(segs, segment{
					idle:  sim.Time(5 + rng.Intn(20)),
					burst: 1500 + rng.Intn(1500),
					gap:   1,
					send:  true,
				})
			}
		} else {
			for i := 0; i < 2; i++ {
				segs = append(segs, segment{
					idle:  sim.Time(400*idx + rng.Intn(500)),
					burst: 3,
					gap:   2,
					send:  rng.Intn(2) == 0,
				})
			}
		}
	default:
		panic(fmt.Sprintf("schedbench: unknown shape %q", shape))
	}
	return segs
}

// Run executes one synthetic schedule to completion: numNodes partitions on
// a bidirectional ring of LinkLatency links, the shape's program on each
// node. fixedLA 0 selects the default adaptive windows; a nonzero value (at
// most LinkLatency) pins the classic fixed-lookahead schedule for baseline
// comparison.
func Run(shape Shape, seed int64, fixedLA sim.Time) (Result, error) {
	opts := []sim.Option{sim.WithPartitions(numNodes)}
	if fixedLA != 0 {
		opts = append(opts, sim.WithLookahead(fixedLA))
	}
	eng := sim.NewEngine(opts...)
	reg := metrics.NewRegistry()
	eng.RegisterMetrics(reg, "sim")

	rng := rand.New(rand.NewSource(seed))
	nodes := make([]*node, numNodes)
	for i := range nodes {
		nodes[i] = &node{part: eng.Partition(i), rng: rng.Uint64() | 1}
	}
	for i, n := range nodes {
		l, r := nodes[(i+numNodes-1)%numNodes], nodes[(i+1)%numNodes]
		n.peers = []*node{l, r}
		n.out = []*sim.Remote{
			eng.Link(n.part, l.part, LinkLatency),
			eng.Link(n.part, r.part, LinkLatency),
		}
	}
	for i, n := range nodes {
		n.program = program(shape, i, rng)
		n.part.ScheduleTick(n.program[0].idle, n)
		n.next = 0
	}

	if err := eng.Run(); err != nil {
		return Result{}, err
	}

	var digest uint64 = 1469598103934665603
	for _, n := range nodes {
		digest = (digest ^ n.digest) * 1099511628211
	}
	snap := reg.Snapshot()
	res := Result{
		Shape:          shape,
		Digest:         digest,
		Cycles:         eng.Now(),
		Events:         eng.EventCount(),
		Windows:        uint64(snap.Value("sim/windows")),
		SerialWindows:  uint64(snap.Value("sim/serial_fallback_windows")),
		BarrierWindows: uint64(snap.Value("sim/barrier_spins")),
		RemoteMsgs:     uint64(snap.Value("sim/remote_msgs")),
	}
	if res.Windows > 0 {
		res.EventsPerWindow = float64(res.Events) / float64(res.Windows)
	}
	return res, nil
}
