// Package rdma implements the per-GPU Remote Direct Memory Access engine
// (Fig. 3) and the inter-GPU wire protocol of Fig. 4. The RDMA engine is
// where the paper's compression happens: outgoing payloads (Data-Ready and
// Write messages) pass through a core.Policy, the chosen algorithm is
// carried in the 4-bit Comp Alg header field, and receivers either
// decompress or — when Comp Alg is 0 — bypass the decompressor entirely.
package rdma

import (
	"fmt"

	"mgpucompress/internal/comp"
	"mgpucompress/internal/sim"
)

// NACKHeaderBytes is the NACK header size in bytes. The other Fig. 4 header
// sizes are mem's (mem.ReadReqHeaderBytes and siblings): only the payload is
// ever compressed, so a wire message's header is charged exactly as its
// memory-hierarchy counterpart's.
const NACKHeaderBytes = 4 // MsgType(4) RspID(16) CompAlg(4) Reserved(8)

// ReadReq asks the owner GPU for N bytes at Addr.
type ReadReq struct {
	sim.MsgMeta
	pooled
	Addr uint64
	N    int
}

// Meta implements sim.Msg.
func (m *ReadReq) Meta() *sim.MsgMeta { return &m.MsgMeta }

// Payload is a possibly-compressed line carried by DataReady and WriteReq
// messages. Enc.Data always holds the bytes that travel on the fabric: the
// encoded bitstream, or, when Alg is comp.None, a raw copy of the line. It
// lives in the carrying message's own line; only a raw payload longer than
// a line has storage of its own.
type Payload struct {
	// Alg is the Comp Alg field: comp.None means the receiver bypasses the
	// decompressor and copies Enc.Data.
	Alg comp.Algorithm
	// Enc is the encoding that ships; its size is the payload's wire size.
	Enc comp.Encoded
	// RawLen is the original payload length in bytes.
	RawLen int
	// CRC is the CRC32C of Enc.Data, computed by the sender when the
	// reliability guard is enabled (0 otherwise). It models the 4-byte
	// trailer; receivers recompute and compare before accepting.
	CRC uint32
}

// WireBytes is the payload's size on the fabric.
func (p Payload) WireBytes() int { return p.Enc.WireBytes() }

// corrupt flips one wire-data bit chosen by pick, in place: the payload
// belongs to one transmission, never to the sender's retained copy. It
// reports false when there is no data to corrupt.
func (p *Payload) corrupt(pick uint64) bool {
	if len(p.Enc.Data) == 0 {
		return false
	}
	bit := pick % uint64(len(p.Enc.Data)*8)
	p.Enc.Data[bit/8] ^= 1 << (bit % 8)
	return true
}

// ownData moves the payload's wire bytes into line, the carrying message's
// own, or into a copy of their own when they do not fit it.
func (p *Payload) ownData(line *[comp.LineSize]byte) {
	if len(p.Enc.Data) > len(line) {
		p.Enc.Data = append([]byte(nil), p.Enc.Data...)
		return
	}
	n := copy(line[:], p.Enc.Data)
	p.Enc.Data = line[:n:n]
}

// DataReady answers a ReadReq.
type DataReady struct {
	sim.MsgMeta
	pooled
	RspTo   uint64
	Addr    uint64
	Payload Payload
	line    [comp.LineSize]byte
}

// Meta implements sim.Msg.
func (m *DataReady) Meta() *sim.MsgMeta { return &m.MsgMeta }

// WriteReq carries data to store at Addr on the owner GPU.
type WriteReq struct {
	sim.MsgMeta
	pooled
	Addr    uint64
	Payload Payload
	line    [comp.LineSize]byte
}

// Meta implements sim.Msg.
func (m *WriteReq) Meta() *sim.MsgMeta { return &m.MsgMeta }

// WriteACK acknowledges a WriteReq.
type WriteACK struct {
	sim.MsgMeta
	pooled
	RspTo uint64
}

// Meta implements sim.Msg.
func (m *WriteACK) Meta() *sim.MsgMeta { return &m.MsgMeta }

// NACK rejects a payload whose CRC check failed, reporting the Comp Alg of
// the offending payload so the compressing endpoint can attribute the
// failure (comp.None = link fault on a raw payload, codec otherwise).
type NACK struct {
	sim.MsgMeta
	pooled
	RspTo uint64
	Alg   comp.Algorithm
}

// Meta implements sim.Msg.
func (m *NACK) Meta() *sim.MsgMeta { return &m.MsgMeta }

// FaultInjectable marks the RDMA wire messages as legal fault-injection
// targets (they sit under the guard's CRC/NACK/retry protocol). The methods
// satisfy internal/fault's structural Injectable interface; control traffic
// such as kernel launches never implements it and is never injected.
func (m *ReadReq) FaultInjectable()   {}
func (m *DataReady) FaultInjectable() {}
func (m *WriteReq) FaultInjectable()  {}
func (m *WriteACK) FaultInjectable()  {}
func (m *NACK) FaultInjectable()      {}

// Corrupt implements fault.Corruptible: it flips one payload bit of this
// transmission in place.
func (m *DataReady) Corrupt(pick uint64) bool { return m.Payload.corrupt(pick) }

// Corrupt implements fault.Corruptible.
func (m *WriteReq) Corrupt(pick uint64) bool { return m.Payload.corrupt(pick) }

// wireMsg is a pooled wire message.
type wireMsg interface {
	sim.Msg
	Release()
}

// pooled is what every wire message carries for its pool: the pool's mark
// and the pool of the engine that sent it, its home.
type pooled struct {
	sim.PoolMark
	home *wirePool
}

// wirePool hands out the wire messages one engine sends. Ownership: one
// transmission, one message, one release. A transmitted message is
// released exactly once, by the engine that receives it once it has handled
// it, or by the fault layer when it drops it. A request's pending entry
// keeps a retained copy that never goes on the fabric; each transmission,
// first send and retries alike, is a pooled copy of it, and the retained
// copy is released when its request completes.
//
// A message is taken on its sender's partition and released on its
// receiver's, so its pool is its sender's: a pool per receiving partition
// would empty on one side and grow without bound on the other under
// one-way traffic. A simulation runs all its partitions on one goroutine,
// so the pool needs no lock.
type wirePool struct {
	reads  sim.Pool[ReadReq, *ReadReq]
	writes sim.Pool[WriteReq, *WriteReq]
	data   sim.Pool[DataReady, *DataReady]
	acks   sim.Pool[WriteACK, *WriteACK]
	nacks  sim.Pool[NACK, *NACK]
}

func (p *wirePool) readReq() *ReadReq {
	m := p.reads.Take()
	m.home = p
	return m
}

func (p *wirePool) writeReq() *WriteReq {
	m := p.writes.Take()
	m.home = p
	return m
}

func (p *wirePool) dataReady() *DataReady {
	m := p.data.Take()
	m.home = p
	return m
}

func (p *wirePool) writeACK() *WriteACK {
	m := p.acks.Take()
	m.home = p
	return m
}

func (p *wirePool) nack() *NACK {
	m := p.nacks.Take()
	m.home = p
	return m
}

// transmission returns a pooled copy of the retained request m, with a
// payload of its own.
func (p *wirePool) transmission(m sim.Msg) sim.Msg {
	switch m := m.(type) {
	case *ReadReq:
		c := p.readReq()
		*c = *m
		return c
	case *WriteReq:
		c := p.writeReq()
		*c = *m
		c.Payload.ownData(&c.line)
		return c
	default:
		panic(fmt.Sprintf("rdma: transmission of %T, not a request", m))
	}
}

// Release returns the message to its home pool. It panics if the message
// is not live; in a poison build it first overwrites the message's ID,
// address and payload bytes.
func (m *ReadReq) Release() {
	if sim.Poison {
		m.ID, m.Addr = sim.PoisonWord, sim.PoisonWord
	}
	m.home.reads.Release(m)
}

// Release returns the message to its home pool; see ReadReq.Release.
func (m *WriteReq) Release() {
	if sim.Poison {
		m.ID, m.Addr = sim.PoisonWord, sim.PoisonWord
		sim.PoisonBytes(m.Payload.Enc.Data)
	}
	m.home.writes.Release(m)
}

// Release returns the message to its home pool; in a poison build it first
// overwrites the message's ID, response ID, address and payload bytes.
func (m *DataReady) Release() {
	if sim.Poison {
		m.ID, m.RspTo, m.Addr = sim.PoisonWord, sim.PoisonWord, sim.PoisonWord
		sim.PoisonBytes(m.Payload.Enc.Data)
	}
	m.home.data.Release(m)
}

// Release returns the message to its home pool; in a poison build it first
// overwrites the message's ID and response ID.
func (m *WriteACK) Release() {
	if sim.Poison {
		m.ID, m.RspTo = sim.PoisonWord, sim.PoisonWord
	}
	m.home.acks.Release(m)
}

// Release returns the message to its home pool; see WriteACK.Release.
func (m *NACK) Release() {
	if sim.Poison {
		m.ID, m.RspTo = sim.PoisonWord, sim.PoisonWord
	}
	m.home.nacks.Release(m)
}

// checkQuiescent reports an error unless every message the pool handed out
// has been released.
func (p *wirePool) checkQuiescent() error {
	if p.reads.Live()+p.writes.Live()+p.data.Live()+p.acks.Live()+p.nacks.Live() == 0 {
		return nil
	}
	return fmt.Errorf("%d ReadReq, %d WriteReq, %d DataReady, %d WriteACK and %d NACK never released",
		p.reads.Live(), p.writes.Live(), p.data.Live(), p.acks.Live(), p.nacks.Live())
}
