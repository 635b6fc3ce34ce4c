package fabric

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"testing"

	"mgpucompress/internal/metrics"
	"mgpucompress/internal/sim"
)

// chatter is a bus endpoint that lives on its own partition and echoes a
// fixed number of request/response rounds with every other endpoint,
// logging (time, message ID, size) for everything it receives.
type chatter struct {
	sim.ComponentBase
	part   *sim.Partition
	port   *sim.Port
	peers  []*sim.Port
	rounds int
	log    []byte
}

func newChatter(name string, part *sim.Partition, rounds int) *chatter {
	c := &chatter{ComponentBase: sim.NewComponentBase(name), part: part, rounds: rounds}
	c.port = sim.NewPort(c, name+".port", 4*1024)
	return c
}

func (c *chatter) Handle(e *sim.Event) error {
	// Kick-off tick: send round 0 to every peer.
	for i, p := range c.peers {
		c.send(e.Time(), p, 0, i)
	}
	return nil
}

func (c *chatter) send(now sim.Time, dst *sim.Port, round, lane int) {
	m := &packet{tag: round}
	m.Dst, m.Bytes = dst, 20+(round+lane)%60
	if !c.port.Send(now, m) {
		panic("chatter: unbuffered send rejected")
	}
}

func (c *chatter) NotifyRecv(now sim.Time, p *sim.Port) {
	for {
		m := p.Retrieve(now)
		if m == nil {
			return
		}
		pk := m.(*packet)
		var rec [28]byte
		binary.LittleEndian.PutUint64(rec[0:], uint64(now))
		binary.LittleEndian.PutUint64(rec[8:], m.Meta().ID)
		binary.LittleEndian.PutUint64(rec[16:], uint64(m.Meta().Bytes))
		binary.LittleEndian.PutUint32(rec[24:], uint32(pk.tag))
		c.log = append(c.log, rec[:]...)
		if pk.tag+1 < c.rounds {
			c.send(now, m.Meta().Src, pk.tag+1, 0)
		}
	}
}

func (c *chatter) NotifyPortFree(sim.Time, *sim.Port) {}

// runWindowDigest builds one fabric with an endpoint per partition, runs the
// all-pairs echo traffic under the given engine options, and digests every
// endpoint's receive log (times and message IDs included) plus the fabric's
// metrics snapshot.
func runWindowDigest(t *testing.T, topology Topology, parts, rounds int, opts ...sim.Option) [32]byte {
	t.Helper()
	engine := sim.NewEngine(append([]sim.Option{sim.WithPartitions(parts + 1)}, opts...)...)
	hub := engine.Partition(parts)
	cfg := DefaultConfig()
	cfg.Topology = topology
	cfg.Nodes = parts
	f := New("fabric", hub, cfg)
	nodes := make([]*chatter, parts)
	for i := range nodes {
		nodes[i] = newChatter("n"+string(rune('0'+i)), engine.Partition(i), rounds)
		f.Attach(nodes[i].port, engine.Partition(i))
	}
	for i, n := range nodes {
		for j, peer := range nodes {
			if i != j {
				n.peers = append(n.peers, peer.port)
			}
		}
		n.part.ScheduleTick(0, n)
	}
	reg := metrics.NewRegistry()
	f.RegisterMetrics(reg, "fabric")
	if err := engine.Run(); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, n := range nodes {
		h.Write(n.log)
	}
	var snap bytes.Buffer
	if err := reg.Snapshot().WriteJSON(&snap); err != nil {
		t.Fatal(err)
	}
	h.Write(snap.Bytes())
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// TestTopologyMatrixWindowDigest: adaptive windows (next-send promises and
// lone-partition widening included) must deliver exactly what one-cycle
// fixed windows deliver — same receive logs, message IDs and fabric metrics
// — on every topology, and on every switched shape of the test matrix. A
// next-send promise the fabric cannot keep shows up here as a divergence
// or as a panic on an event scheduled into a partition's past.
func TestTopologyMatrixWindowDigest(t *testing.T) {
	const rounds = 10
	check := func(topo Topology, n int) {
		want := runWindowDigest(t, topo, n, rounds, sim.WithLookahead(1))
		if got := runWindowDigest(t, topo, n, rounds); got != want {
			t.Errorf("%s/%d: adaptive windows diverged from fixed one-cycle windows", topo, n)
		}
	}
	check(TopologyBus, 4)
	check(TopologyCrossbar, 4)
	for _, tc := range switchedTopologies {
		for _, n := range tc.nodes {
			if testing.Short() && n > 8 {
				continue
			}
			check(tc.topo, n)
		}
	}
}
