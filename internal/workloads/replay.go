package workloads

import (
	"bufio"
	"encoding/hex"
	"fmt"
	"io"
	"strconv"
	"strings"

	"mgpucompress/internal/gpu"
	"mgpucompress/internal/mem"
	"mgpucompress/internal/platform"
)

// Replay is a trace-driven workload: it executes a memory-access trace
// through the simulated multi-GPU system, so the compression study can be
// applied to traffic captured from any real application — the same
// methodology the paper uses with its OpenCL benchmarks, opened up to
// arbitrary inputs.
//
// Trace format (text, one operation per line, '#' comments):
//
//	G                  start a new workgroup (the first G is implicit)
//	R <offset>         read the 64-byte line at the hex/dec offset
//	W <offset> <hex>   write hex-encoded bytes (≤64) at the offset
//	C <cycles>         compute for the given number of cycles
//
// Offsets are logical positions in one shared buffer striped across the
// GPUs, so a trace captured on any machine exercises remote traffic here.
// Workgroups are dispatched round-robin across all CUs of all GPUs and may
// run concurrently; writes to the same line from different workgroups race
// exactly as they would on hardware.
type Replay struct {
	ops  [][]traceOp // per workgroup
	size uint64

	buf mem.Buffer
	// Initial contents, applied at Setup.
	initial map[uint64][]byte
}

type traceOp struct {
	kind   byte // 'R', 'W', 'C'
	offset uint64
	data   []byte
	cycles int
}

// ParseTrace reads a trace from r.
func ParseTrace(r io.Reader) (*Replay, error) {
	rp := &Replay{initial: make(map[uint64][]byte)}
	var cur []traceOp
	flush := func() {
		if len(cur) > 0 {
			rp.ops = append(rp.ops, cur)
			cur = nil
		}
	}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch strings.ToUpper(fields[0]) {
		case "G":
			flush()
		case "R":
			if len(fields) != 2 {
				return nil, fmt.Errorf("workloads: trace line %d: R needs an offset", lineNo)
			}
			off, err := parseOffset(fields[1])
			if err != nil {
				return nil, fmt.Errorf("workloads: trace line %d: %v", lineNo, err)
			}
			rp.noteExtent(off + mem.LineSize)
			cur = append(cur, traceOp{kind: 'R', offset: off})
		case "W":
			if len(fields) != 3 {
				return nil, fmt.Errorf("workloads: trace line %d: W needs offset and data", lineNo)
			}
			off, err := parseOffset(fields[1])
			if err != nil {
				return nil, fmt.Errorf("workloads: trace line %d: %v", lineNo, err)
			}
			data, err := hex.DecodeString(fields[2])
			if err != nil {
				return nil, fmt.Errorf("workloads: trace line %d: bad hex data: %v", lineNo, err)
			}
			if len(data) == 0 || len(data) > mem.LineSize {
				return nil, fmt.Errorf("workloads: trace line %d: write of %d bytes", lineNo, len(data))
			}
			rp.noteExtent(off + uint64(len(data)))
			cur = append(cur, traceOp{kind: 'W', offset: off, data: data})
		case "C":
			if len(fields) != 2 {
				return nil, fmt.Errorf("workloads: trace line %d: C needs a cycle count", lineNo)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("workloads: trace line %d: bad cycle count", lineNo)
			}
			cur = append(cur, traceOp{kind: 'C', cycles: n})
		default:
			return nil, fmt.Errorf("workloads: trace line %d: unknown op %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	flush()
	if len(rp.ops) == 0 {
		return nil, fmt.Errorf("workloads: empty trace")
	}
	return rp, nil
}

func parseOffset(s string) (uint64, error) {
	v, err := strconv.ParseUint(strings.TrimPrefix(s, "0x"), 16, 64)
	if err != nil {
		return 0, fmt.Errorf("bad offset %q: %v", s, err)
	}
	return v, nil
}

func (rp *Replay) noteExtent(end uint64) {
	if end > rp.size {
		rp.size = end
	}
}

// SetInitial preloads bytes at a logical offset before the replay starts
// (e.g. the application's input data, so read traffic carries real values).
func (rp *Replay) SetInitial(offset uint64, data []byte) {
	rp.initial[offset] = append([]byte(nil), data...)
	rp.noteExtent(offset + uint64(len(data)))
}

// Abbrev implements Workload.
func (rp *Replay) Abbrev() string { return "TRACE" }

// Name implements Workload.
func (rp *Replay) Name() string { return "Trace Replay" }

// Description implements Workload.
func (rp *Replay) Description() string {
	return "Replays a captured memory-access trace through the multi-GPU system."
}

// Workgroups returns the number of workgroups in the trace.
func (rp *Replay) Workgroups() int { return len(rp.ops) }

// Setup implements Workload.
func (rp *Replay) Setup(p *platform.Platform) error {
	size := rp.size
	if size == 0 {
		size = mem.LineSize
	}
	rp.buf = p.Space.AllocStriped(size + mem.LineSize)
	for off, data := range rp.initial {
		rp.buf.Write(off, data)
	}
	return nil
}

// Run implements Workload: one wavefront per traced workgroup.
func (rp *Replay) Run(p *platform.Platform) error {
	k := &gpu.Kernel{
		Name:          "trace_replay",
		NumWorkgroups: len(rp.ops),
		Args:          argsBlock([]uint64{rp.buf.Base()}, []uint32{uint32(len(rp.ops))}),
		Program:       replayProgram{rp},
	}
	return p.Driver.Launch(k)
}

// replayProgram emits a traced workgroup's operations one at a time; Step
// indexes the trace.
type replayProgram struct{ rp *Replay }

func (k replayProgram) Waves(int) int { return 1 }

func (k replayProgram) Next(w *gpu.Wave) {
	ops := k.rp.ops[w.WG]
	if w.Step == len(ops) {
		return
	}
	op := ops[w.Step]
	w.Step++
	switch op.kind {
	case 'R':
		w.Read(k.rp.buf.Addr(op.offset), mem.LineSize, nil, 0)
	case 'W':
		w.Write(k.rp.buf.Addr(op.offset), op.data)
	case 'C':
		w.Compute(op.cycles)
	}
}

// Verify implements Workload: replay every workgroup's writes in program
// order into a shadow image and compare the bytes each single-writer line
// should hold. Lines written by multiple workgroups race by design (as on
// real hardware) and are skipped.
func (rp *Replay) Verify(p *platform.Platform) error {
	writers := map[uint64]map[int]bool{} // line index -> writing WGs
	shadow := map[uint64]*[mem.LineSize]byte{}
	mask := map[uint64]*[mem.LineSize]bool{}
	for wg, ops := range rp.ops {
		for _, op := range ops {
			if op.kind != 'W' {
				continue
			}
			for i := range op.data {
				pos := op.offset + uint64(i)
				line := pos / mem.LineSize
				if writers[line] == nil {
					writers[line] = map[int]bool{}
					shadow[line] = &[mem.LineSize]byte{}
					mask[line] = &[mem.LineSize]bool{}
				}
				writers[line][wg] = true
				shadow[line][pos%mem.LineSize] = op.data[i]
				mask[line][pos%mem.LineSize] = true
			}
		}
	}
	for line, wgs := range writers {
		if len(wgs) != 1 {
			continue // cross-workgroup race: unverifiable by design
		}
		got := rp.buf.Read(line*mem.LineSize, mem.LineSize)
		for i := 0; i < mem.LineSize; i++ {
			if mask[line][i] && got[i] != shadow[line][i] {
				return fmt.Errorf("TRACE: line %d byte %d holds %#x, want %#x",
					line, i, got[i], shadow[line][i])
			}
		}
	}
	return nil
}
