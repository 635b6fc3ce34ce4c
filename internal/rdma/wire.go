package rdma

import (
	"fmt"
	"hash/crc32"

	"mgpucompress/internal/bitstream"
	"mgpucompress/internal/comp"
)

// Bit-accurate packing of the Fig. 4 message headers. The simulator routes
// Go structs for speed, but these encoders define the exact wire layout —
// every header byte the fabric-size accounting charges corresponds to real
// bits here, and tests assert the two never drift apart.
//
//	Read Req    MsgType(4) MsgID(16) PhyAddr(48) Length(32) Reserved(28)
//	Data Ready  MsgType(4) RspID(16) CompAlg(4)  Reserved(8)
//	Write Req   MsgType(4) MsgID(16) PhyAddr(48) CompAlg(4) Length(32) Reserved(24)
//	Write ACK   MsgType(4) RspID(16) Reserved(12)
//	NACK        MsgType(4) RspID(16) CompAlg(4)  Reserved(8)
//
// The NACK is this codebase's reliability extension (not in Fig. 4): a
// receiver that fails the CRC32C payload check rejects the transfer and
// reports the offending Comp Alg back to the compressing endpoint.

// MsgType is the 4-bit wire message type.
type MsgType uint8

// Fig. 4 message types, plus the NACK reliability extension.
const (
	MsgRead MsgType = iota
	MsgDataReady
	MsgWrite
	MsgWriteACK
	MsgNACK
)

// String names the message type.
func (t MsgType) String() string {
	switch t {
	case MsgRead:
		return "Read"
	case MsgDataReady:
		return "Data-Ready"
	case MsgWrite:
		return "Write"
	case MsgWriteACK:
		return "Write-ACK"
	case MsgNACK:
		return "NACK"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// Header is the decoded form of any Fig. 4 header.
type Header struct {
	Type    MsgType
	Seq     uint16 // MsgID / RspID: 16-bit sequence for out-of-order fulfillment
	Addr    uint64 // 48-bit physical address (Read/Write)
	Length  uint32 // payload length in bytes (Read/Write)
	CompAlg comp.Algorithm
}

const addrMask = (uint64(1) << 48) - 1

// EncodeHeader packs the header into its exact Fig. 4 byte layout.
func EncodeHeader(h Header) ([]byte, error) {
	if h.Addr&^addrMask != 0 {
		return nil, fmt.Errorf("rdma: address %#x exceeds 48 bits", h.Addr)
	}
	if uint8(h.CompAlg) > 15 {
		return nil, fmt.Errorf("rdma: Comp Alg %d exceeds 4 bits", h.CompAlg)
	}
	w := bitstream.NewWriter()
	w.WriteBits(uint64(h.Type), 4)
	w.WriteBits(uint64(h.Seq), 16)
	switch h.Type {
	case MsgRead:
		w.WriteBits(h.Addr, 48)
		w.WriteBits(uint64(h.Length), 32)
		w.WriteBits(0, 28) // reserved
	case MsgDataReady, MsgNACK:
		w.WriteBits(uint64(h.CompAlg), 4)
		w.WriteBits(0, 8) // reserved
	case MsgWrite:
		w.WriteBits(h.Addr, 48)
		w.WriteBits(uint64(h.CompAlg), 4)
		w.WriteBits(uint64(h.Length), 32)
		w.WriteBits(0, 24) // reserved
	case MsgWriteACK:
		w.WriteBits(0, 12) // reserved
	default:
		return nil, fmt.Errorf("rdma: unknown message type %v", h.Type)
	}
	return w.Bytes(), nil
}

// DecodeHeader unpacks a Fig. 4 header.
func DecodeHeader(data []byte) (Header, error) {
	r := bitstream.NewReader(data)
	t, err := r.ReadBits(4)
	if err != nil {
		return Header{}, err
	}
	seq, err := r.ReadBits(16)
	if err != nil {
		return Header{}, err
	}
	h := Header{Type: MsgType(t), Seq: uint16(seq)}
	switch h.Type {
	case MsgRead:
		if h.Addr, err = r.ReadBits(48); err != nil {
			return Header{}, err
		}
		l, err := r.ReadBits(32)
		if err != nil {
			return Header{}, err
		}
		h.Length = uint32(l)
		if _, err := r.ReadBits(28); err != nil {
			return Header{}, err
		}
	case MsgDataReady, MsgNACK:
		alg, err := r.ReadBits(4)
		if err != nil {
			return Header{}, err
		}
		h.CompAlg = comp.Algorithm(alg)
		if _, err := r.ReadBits(8); err != nil {
			return Header{}, err
		}
	case MsgWrite:
		if h.Addr, err = r.ReadBits(48); err != nil {
			return Header{}, err
		}
		alg, err := r.ReadBits(4)
		if err != nil {
			return Header{}, err
		}
		h.CompAlg = comp.Algorithm(alg)
		l, err := r.ReadBits(32)
		if err != nil {
			return Header{}, err
		}
		h.Length = uint32(l)
		if _, err := r.ReadBits(24); err != nil {
			return Header{}, err
		}
	case MsgWriteACK:
		if _, err := r.ReadBits(12); err != nil {
			return Header{}, err
		}
	default:
		return Header{}, fmt.Errorf("rdma: unknown wire message type %d", t)
	}
	return h, nil
}

// Header returns the decoded Fig. 4 header of a ReadReq.
func (m *ReadReq) Header() Header {
	return Header{Type: MsgRead, Seq: uint16(m.ID), Addr: m.Addr & addrMask, Length: uint32(m.N)}
}

// Header returns the decoded Fig. 4 header of a DataReady.
func (m *DataReady) Header() Header {
	return Header{Type: MsgDataReady, Seq: uint16(m.RspTo), CompAlg: m.Payload.Alg}
}

// Header returns the decoded Fig. 4 header of a WriteReq.
func (m *WriteReq) Header() Header {
	return Header{Type: MsgWrite, Seq: uint16(m.ID), Addr: m.Addr & addrMask,
		CompAlg: m.Payload.Alg, Length: uint32(m.Payload.RawLen)}
}

// Header returns the decoded Fig. 4 header of a WriteACK.
func (m *WriteACK) Header() Header {
	return Header{Type: MsgWriteACK, Seq: uint16(m.RspTo)}
}

// Header returns the decoded header of a NACK.
func (m *NACK) Header() Header {
	return Header{Type: MsgNACK, Seq: uint16(m.RspTo), CompAlg: m.Alg}
}

// CRCTrailerBytes is the size of the CRC32C trailer appended to every
// payload-bearing wire message when the reliability guard is enabled. The
// trailer is charged to the message's fabric size only under an enabled
// guard, so fault-free runs keep their exact Fig. 4 byte accounting.
const CRCTrailerBytes = 4

// crcTable is the Castagnoli polynomial table shared by all engines.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// PayloadCRC computes the CRC32C of the payload's wire bytes.
func PayloadCRC(p Payload) uint32 { return crc32.Checksum(p.Enc.Data, crcTable) }
