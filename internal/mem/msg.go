package mem

import "mgpucompress/internal/sim"

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
	Addr uint64
	N    int
}

// Meta implements sim.Msg.
func (m *ReadReq) Meta() *sim.MsgMeta { return &m.MsgMeta }

// NewReadReq builds a read request with correct wire size.
func NewReadReq(src, dst *sim.Port, addr uint64, n int) *ReadReq {
	r := &ReadReq{Addr: addr, N: n}
	r.Src, r.Dst, r.Bytes = src, dst, ReadReqHeaderBytes
	return r
}

// WriteReq carries Data to be stored at Addr.
type WriteReq struct {
	sim.MsgMeta
	Addr uint64
	Data []byte
}

// Meta implements sim.Msg.
func (m *WriteReq) Meta() *sim.MsgMeta { return &m.MsgMeta }

// NewWriteReq builds a write request with correct wire size (header plus
// uncompressed payload; the RDMA layer replaces the payload size when it
// compresses).
func NewWriteReq(src, dst *sim.Port, addr uint64, data []byte) *WriteReq {
	w := &WriteReq{Addr: addr, Data: data}
	w.Src, w.Dst, w.Bytes = src, dst, WriteReqHeaderBytes+len(data)
	return w
}

// NewWriteReqLine builds a write request that carries a copy of data in its
// own allocation, so the caller may reuse data once this returns. Payloads
// longer than a line are copied to a separate slice.
func NewWriteReqLine(src, dst *sim.Port, addr uint64, data []byte) *WriteReq {
	if len(data) > LineSize {
		return NewWriteReq(src, dst, addr, append([]byte(nil), data...))
	}
	l := &writeReqLine{}
	n := copy(l.line[:], data)
	l.WriteReq = WriteReq{Addr: addr, Data: l.line[:n:n]}
	l.Src, l.Dst, l.Bytes = src, dst, WriteReqHeaderBytes+n
	return &l.WriteReq
}

// writeReqLine is a WriteReq and the line it carries in one allocation.
type writeReqLine struct {
	WriteReq
	line [LineSize]byte
}

// DataReady answers a ReadReq with the requested bytes.
type DataReady struct {
	sim.MsgMeta
	RspTo uint64 // ID of the ReadReq
	Addr  uint64
	Data  []byte
}

// Meta implements sim.Msg.
func (m *DataReady) Meta() *sim.MsgMeta { return &m.MsgMeta }

// NewDataReady builds a read response.
func NewDataReady(src, dst *sim.Port, rspTo uint64, addr uint64, data []byte) *DataReady {
	d := &DataReady{RspTo: rspTo, Addr: addr, Data: data}
	d.Src, d.Dst, d.Bytes = src, dst, DataReadyHeaderBytes+len(data)
	return d
}

// NewDataReadyLine builds a read response whose n data bytes live in the
// message's own allocation; the caller fills Data (zeroed) before sending.
// Responses longer than a line get a separate slice.
func NewDataReadyLine(src, dst *sim.Port, rspTo uint64, addr uint64, n int) *DataReady {
	if n > LineSize {
		return NewDataReady(src, dst, rspTo, addr, make([]byte, n))
	}
	l := &dataReadyLine{}
	l.DataReady = DataReady{RspTo: rspTo, Addr: addr, Data: l.line[:n:n]}
	l.Src, l.Dst, l.Bytes = src, dst, DataReadyHeaderBytes+n
	return &l.DataReady
}

// dataReadyLine is a DataReady and the line it carries in one allocation.
type dataReadyLine struct {
	DataReady
	line [LineSize]byte
}

// WriteACK acknowledges a WriteReq.
type WriteACK struct {
	sim.MsgMeta
	RspTo uint64
	Addr  uint64
}

// Meta implements sim.Msg.
func (m *WriteACK) Meta() *sim.MsgMeta { return &m.MsgMeta }

// NewWriteACK builds a write acknowledgment.
func NewWriteACK(src, dst *sim.Port, rspTo uint64, addr uint64) *WriteACK {
	a := &WriteACK{RspTo: rspTo, Addr: addr}
	a.Src, a.Dst, a.Bytes = src, dst, WriteACKHeaderBytes
	return a
}
