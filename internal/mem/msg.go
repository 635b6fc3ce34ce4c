package mem

import (
	"fmt"

	"mgpucompress/internal/sim"
)

// Header sizes in bytes, from the message formats of Fig. 4. The same
// framing is used intra-GPU for consistency; only inter-GPU messages cross
// the compressing RDMA path.
const (
	ReadReqHeaderBytes   = 16 // 4+16+48+32+28 bits = 128
	WriteReqHeaderBytes  = 16 // 4+16+48+4+32+24 bits = 128
	DataReadyHeaderBytes = 4  // 4+16+4+8 bits = 32
	WriteACKHeaderBytes  = 4  // 4+16+12 bits = 32
)

// AccessKind distinguishes loads from stores in statistics.
type AccessKind int

// Access kinds.
const (
	Load AccessKind = iota
	Store
)

// ReadReq asks for n bytes at Addr.
type ReadReq struct {
	sim.MsgMeta
	sim.PoolMark
	Addr uint64
	N    int
}

// Meta implements sim.Msg.
func (m *ReadReq) Meta() *sim.MsgMeta { return &m.MsgMeta }

// WriteReq carries Data to be stored at Addr. Data lives in the message's
// own line when it fits one.
type WriteReq struct {
	sim.MsgMeta
	sim.PoolMark
	Addr uint64
	Data []byte
	line [LineSize]byte
}

// Meta implements sim.Msg.
func (m *WriteReq) Meta() *sim.MsgMeta { return &m.MsgMeta }

// DataReady answers a ReadReq with the requested bytes. Data lives in the
// message's own line when it fits one.
type DataReady struct {
	sim.MsgMeta
	sim.PoolMark
	RspTo uint64 // ID of the ReadReq
	Addr  uint64
	Data  []byte
	line  [LineSize]byte
}

// Meta implements sim.Msg.
func (m *DataReady) Meta() *sim.MsgMeta { return &m.MsgMeta }

// WriteACK acknowledges a WriteReq.
type WriteACK struct {
	sim.MsgMeta
	sim.PoolMark
	RspTo uint64
	Addr  uint64
}

// Meta implements sim.Msg.
func (m *WriteACK) Meta() *sim.MsgMeta { return &m.MsgMeta }

// Pool hands out the memory-hierarchy messages of one partition. Memory
// messages travel only on a partition's DirectConnections, so every
// message is taken and released on the partition that owns the pool, and
// the pool needs no locking.
//
// Ownership: a message belongs to whoever holds it, and the component that
// retrieves it from a port releases it once it has handled it. Nothing
// keeps a pointer to a message it has retrieved (a table keeps the fields
// it needs by value), and no message aliases another's Data (a forwarded
// payload is copied), so a release never invalidates anything still in
// use. Each constructor returns a message with ID 0, which the sender
// numbers with AssignMsgID or Port.Send exactly as a fresh one.
type Pool struct {
	reads  sim.Pool[ReadReq, *ReadReq]
	writes sim.Pool[WriteReq, *WriteReq]
	data   sim.Pool[DataReady, *DataReady]
	acks   sim.Pool[WriteACK, *WriteACK]
}

// poolKey is the partition-local key of the partition's Pool.
type poolKey struct{}

// PoolOf returns the message pool of partition part, creating it on first
// use. Components look it up once, at construction.
func PoolOf(part *sim.Partition) *Pool {
	return part.Local(poolKey{}, func() any { return new(Pool) }).(*Pool)
}

// ReadReq returns a read request for n bytes at addr.
func (p *Pool) ReadReq(src, dst *sim.Port, addr uint64, n int) *ReadReq {
	r := p.reads.Take()
	r.Src, r.Dst, r.Bytes = src, dst, ReadReqHeaderBytes
	r.Addr, r.N = addr, n
	return r
}

// WriteReq returns a write request for n bytes at addr (header plus
// uncompressed payload; the RDMA layer sizes its own wire message when it
// compresses). Data is zeroed; the caller fills it before sending.
func (p *Pool) WriteReq(src, dst *sim.Port, addr uint64, n int) *WriteReq {
	w := p.writes.Take()
	w.Src, w.Dst, w.Bytes = src, dst, WriteReqHeaderBytes+n
	w.Addr, w.Data = addr, lineData(&w.line, n)
	return w
}

// DataReady returns a response of n bytes at addr to the read rspTo. Data
// is zeroed; the caller fills it before sending.
func (p *Pool) DataReady(src, dst *sim.Port, rspTo, addr uint64, n int) *DataReady {
	d := p.data.Take()
	d.Src, d.Dst, d.Bytes = src, dst, DataReadyHeaderBytes+n
	d.RspTo, d.Addr, d.Data = rspTo, addr, lineData(&d.line, n)
	return d
}

// WriteACK returns an acknowledgment of the write rspTo at addr.
func (p *Pool) WriteACK(src, dst *sim.Port, rspTo, addr uint64) *WriteACK {
	a := p.acks.Take()
	a.Src, a.Dst, a.Bytes = src, dst, WriteACKHeaderBytes
	a.RspTo, a.Addr = rspTo, addr
	return a
}

// lineData returns n bytes of a message's own line, or a separate slice
// when n exceeds a line.
func lineData(line *[LineSize]byte, n int) []byte {
	if n > LineSize {
		return make([]byte, n)
	}
	return line[:n:n]
}

// Poison values a poison build writes into a released message.
const (
	poisonByte = 0xDB
	poisonWord = 0xDBDBDBDBDBDBDBDB
)

// Release returns m, a message of this pool, once its receiver has handled
// it. It panics if m is not live or not a memory message. In a poison
// build it first overwrites m's ID, address, response ID and data.
func (p *Pool) Release(m sim.Msg) {
	switch m := m.(type) {
	case *ReadReq:
		if sim.Poison {
			m.ID, m.Addr = poisonWord, poisonWord
		}
		p.reads.Release(m)
	case *WriteReq:
		if sim.Poison {
			m.ID, m.Addr = poisonWord, poisonWord
			poisonBytes(m.Data)
		}
		p.writes.Release(m)
	case *DataReady:
		if sim.Poison {
			m.ID, m.Addr, m.RspTo = poisonWord, poisonWord, poisonWord
			poisonBytes(m.Data)
		}
		p.data.Release(m)
	case *WriteACK:
		if sim.Poison {
			m.ID, m.Addr, m.RspTo = poisonWord, poisonWord, poisonWord
		}
		p.acks.Release(m)
	default:
		panic(fmt.Sprintf("mem: release of %T, not a memory message", m))
	}
}

func poisonBytes(data []byte) {
	for i := range data {
		data[i] = poisonByte
	}
}

// Live returns the number of messages taken and not yet released.
func (p *Pool) Live() int {
	return p.reads.Live() + p.writes.Live() + p.data.Live() + p.acks.Live()
}

// CheckQuiescent reports an error unless every message the pool handed out
// has been released.
func (p *Pool) CheckQuiescent() error {
	if p.Live() == 0 {
		return nil
	}
	return fmt.Errorf("%d ReadReq, %d WriteReq, %d DataReady and %d WriteACK never released",
		p.reads.Live(), p.writes.Live(), p.data.Live(), p.acks.Live())
}
