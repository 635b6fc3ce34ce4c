// Package rdma implements the per-GPU Remote Direct Memory Access engine
// (Fig. 3) and the inter-GPU wire protocol of Fig. 4. The RDMA engine is
// where the paper's compression happens: outgoing payloads (Data-Ready and
// Write messages) pass through a core.Policy, the chosen algorithm is
// carried in the 4-bit Comp Alg header field, and receivers either
// decompress or — when Comp Alg is 0 — bypass the decompressor entirely.
package rdma

import (
	"mgpucompress/internal/comp"
	"mgpucompress/internal/sim"
)

// Header sizes in bytes, from Fig. 4. Only the payload is ever compressed;
// headers always travel in full.
const (
	ReadReqHeaderBytes   = 16 // MsgType(4) MsgID(16) PhyAddr(48) Length(32) Reserved(28)
	DataReadyHeaderBytes = 4  // MsgType(4) RspID(16) CompAlg(4) Reserved(8)
	WriteReqHeaderBytes  = 16 // MsgType(4) MsgID(16) PhyAddr(48) CompAlg(4) Length(32) Reserved(24)
	WriteACKHeaderBytes  = 4  // MsgType(4) RspID(16) Reserved(12)
	NACKHeaderBytes      = 4  // MsgType(4) RspID(16) CompAlg(4) Reserved(8)
)

// ReadReq asks the owner GPU for N bytes at Addr.
type ReadReq struct {
	sim.MsgMeta
	Addr uint64
	N    int
}

// Meta implements sim.Msg.
func (m *ReadReq) Meta() *sim.MsgMeta { return &m.MsgMeta }

// Payload is a possibly-compressed line carried by DataReady and WriteReq
// messages.
type Payload struct {
	// Alg is the Comp Alg field: comp.None means Raw holds the bytes and
	// the receiver bypasses the decompressor.
	Alg comp.Algorithm
	// Enc is the compressed encoding (valid when Alg != comp.None).
	Enc comp.Encoded
	// Raw holds the uncompressed bytes (valid when Alg == comp.None).
	Raw []byte
	// RawLen is the original payload length in bytes.
	RawLen int
	// CRC is the CRC32C of the wire data, computed by the sender when the
	// reliability guard is enabled (0 otherwise). It models the 4-byte
	// trailer; receivers recompute and compare before accepting.
	CRC uint32
}

// WireBytes is the payload's size on the fabric.
func (p Payload) WireBytes() int {
	if p.Alg == comp.None {
		return len(p.Raw)
	}
	return p.Enc.WireBytes()
}

// wireData returns the bytes that travel on the fabric: the encoded
// bitstream for compressed payloads, the raw line otherwise.
func (p Payload) wireData() []byte {
	if p.Alg == comp.None {
		return p.Raw
	}
	return p.Enc.Data
}

// corrupt flips one wire-data bit chosen by pick, replacing the payload's
// data with a modified clone so the sender's retransmission copy stays
// intact. It reports false when there is no data to corrupt.
func (p *Payload) corrupt(pick uint64) bool {
	data := p.wireData()
	if len(data) == 0 {
		return false
	}
	clone := append([]byte(nil), data...)
	bit := pick % uint64(len(clone)*8)
	clone[bit/8] ^= 1 << (bit % 8)
	if p.Alg == comp.None {
		p.Raw = clone
	} else {
		p.Enc.Data = clone
	}
	return true
}

// DataReady answers a ReadReq.
type DataReady struct {
	sim.MsgMeta
	RspTo   uint64
	Addr    uint64
	Payload Payload
}

// Meta implements sim.Msg.
func (m *DataReady) Meta() *sim.MsgMeta { return &m.MsgMeta }

// WriteReq carries data to store at Addr on the owner GPU.
type WriteReq struct {
	sim.MsgMeta
	Addr    uint64
	Payload Payload
}

// Meta implements sim.Msg.
func (m *WriteReq) Meta() *sim.MsgMeta { return &m.MsgMeta }

// WriteACK acknowledges a WriteReq.
type WriteACK struct {
	sim.MsgMeta
	RspTo uint64
}

// Meta implements sim.Msg.
func (m *WriteACK) Meta() *sim.MsgMeta { return &m.MsgMeta }

// NACK rejects a payload whose CRC check failed, reporting the Comp Alg of
// the offending payload so the compressing endpoint can attribute the
// failure (comp.None = link fault on a raw payload, codec otherwise).
type NACK struct {
	sim.MsgMeta
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

// CorruptCopy implements fault.Corruptible: a copy of the message with one
// payload bit flipped. The original — still held by the sender for
// retransmission — is untouched.
func (m *DataReady) CorruptCopy(pick uint64) (sim.Msg, bool) {
	c := *m
	if !c.Payload.corrupt(pick) {
		return nil, false
	}
	return &c, true
}

// CorruptCopy implements fault.Corruptible.
func (m *WriteReq) CorruptCopy(pick uint64) (sim.Msg, bool) {
	c := *m
	if !c.Payload.corrupt(pick) {
		return nil, false
	}
	return &c, true
}
