package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"regexp"
	"runtime"
	"runtime/pprof"
	"strings"
)

const (
	cpuProfileHz = 1000
	// memProfileRate samples one allocation per 4 KiB, which gives every
	// workload's pass well over 10k allocation samples.
	memProfileRate = 4096
	repoPrefix     = "mgpucompress/internal/"
)

// layers are the simulator packages the ledger charges host time to. Two
// more buckets complete the fold: gc for the background collector and other
// for samples with no repository frame.
var layers = []string{
	"sim", "gpu", "cache", "mem", "rdma", "fabric", "fault", "core", "comp",
	"bitstream", "stats", "metrics", "platform", "workloads", "runner", "sweep",
}

var (
	snapshotFrame = regexp.MustCompile(`^mgpucompress/internal/metrics\.\(\*Registry\)\.Snapshot`)
	verifyFrame   = regexp.MustCompile(`^mgpucompress/internal/workloads\.\(\*\w+\)\.Verify`)
)

// fold is a traced pass's host time and allocations charged to layers.
type fold struct {
	// CPUNs is profiled CPU time per layer, gc and other included; it sums
	// to TotalNs.
	CPUNs   map[string]int64 `json:"cpu_ns"`
	TotalNs int64            `json:"total_ns"`
	// RuntimeNs counts samples whose leaf frame is in the Go runtime,
	// whoever called it; SnapshotNs and VerifyNs are the cumulative time
	// under metrics.(*Registry).Snapshot and the workloads' Verify methods.
	RuntimeNs  int64 `json:"runtime_ns"`
	SnapshotNs int64 `json:"snapshot_ns"`
	VerifyNs   int64 `json:"verify_ns"`
	// Allocs is allocated objects per layer over the pass.
	Allocs map[string]int64 `json:"allocs"`
}

// stack is one profile sample: function names from leaf to root and the
// sample's value.
type stack struct {
	funcs []string
	value int64
}

// layerOf charges a stack to the first frame from the leaf that belongs to a
// ledger layer, so malloc, write barriers and GC assists land on the layer
// that caused them. Repository packages outside the ledger (energy, trace)
// are charged to their caller. A stack with no such frame goes to gc when
// the background collector runs it, else to other.
func layerOf(funcs []string) string {
	for _, f := range funcs {
		if l := repoLayer(f); l != "" {
			return l
		}
	}
	for _, f := range funcs {
		switch f {
		case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge":
			return "gc"
		}
	}
	return "other"
}

func repoLayer(fn string) string {
	rest, ok := strings.CutPrefix(fn, repoPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	for _, l := range layers {
		if l == rest {
			return l
		}
	}
	return ""
}

func isRuntime(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/")
}

func anyFrame(funcs []string, re *regexp.Regexp) bool {
	for _, f := range funcs {
		if re.MatchString(f) {
			return true
		}
	}
	return false
}

// foldStacks charges CPU samples to layers and the cross-cutting views.
func foldStacks(stacks []stack) fold {
	f := fold{CPUNs: make(map[string]int64)}
	for _, s := range stacks {
		f.CPUNs[layerOf(s.funcs)] += s.value
		f.TotalNs += s.value
		if len(s.funcs) > 0 && isRuntime(s.funcs[0]) {
			f.RuntimeNs += s.value
		}
		if anyFrame(s.funcs, snapshotFrame) {
			f.SnapshotNs += s.value
		}
		if anyFrame(s.funcs, verifyFrame) {
			f.VerifyNs += s.value
		}
	}
	return f
}

// startTrace starts profiling a traced pass. The returned function stops it
// and folds the CPU profile, and the allocations made in between, by layer.
func startTrace() (func() (*fold, error), error) {
	before, err := foldAllocs()
	if err != nil {
		return nil, err
	}
	var cpu bytes.Buffer
	// pprof.StartCPUProfile fixes 100 Hz; setting the rate first keeps 1 kHz
	// (the runtime prints a warning on stderr, which is expected).
	runtime.SetCPUProfileRate(cpuProfileHz)
	if err := pprof.StartCPUProfile(&cpu); err != nil {
		return nil, err
	}
	return func() (*fold, error) {
		pprof.StopCPUProfile()
		f, err := foldCPU(cpu.Bytes())
		if err != nil {
			return nil, err
		}
		runtime.GC() // publish the pass's allocation samples
		after, err := foldAllocs()
		if err != nil {
			return nil, err
		}
		f.Allocs = make(map[string]int64, len(after))
		for layer, n := range after {
			f.Allocs[layer] = n - before[layer]
		}
		return &f, nil
	}, nil
}

func foldCPU(prof []byte) (fold, error) {
	stacks, err := parseProfile(prof, "cpu")
	if err != nil {
		return fold{}, fmt.Errorf("cpu profile: %w", err)
	}
	return foldStacks(stacks), nil
}

// foldAllocs folds the process's allocation profile so far into objects per
// layer.
func foldAllocs() (map[string]int64, error) {
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		return nil, err
	}
	stacks, err := parseProfile(buf.Bytes(), "alloc_objects")
	if err != nil {
		return nil, fmt.Errorf("allocs profile: %w", err)
	}
	out := make(map[string]int64)
	for _, s := range stacks {
		out[layerOf(s.funcs)] += s.value
	}
	return out, nil
}

// parseProfile decodes a gzipped profile.proto message (the format
// runtime/pprof writes) into leaf-first stacks carrying the value of the
// named sample type. It reads only the fields the fold needs.
func parseProfile(data []byte, sampleType string) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		typeIdx   []uint64 // string index of each sample type's name
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcNames = map[uint64]uint64{}   // function id -> string index
		strs      []string
	)
	err = walk(raw, func(num int, v uint64, msg []byte) error {
		switch num {
		case 1: // sample_type
			return walk(msg, func(num int, v uint64, _ []byte) error {
				if num == 1 {
					typeIdx = append(typeIdx, v)
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := walk(msg, func(num int, v uint64, packed []byte) error {
				var err error
				switch num {
				case 1:
					s.locs, err = appendInts(s.locs, v, packed)
				case 2:
					s.values, err = appendInts(s.values, v, packed)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walk(msg, func(num int, v uint64, line []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line: inlined callees first, the caller last
					return walk(line, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := walk(msg, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	col := -1
	for i, t := range typeIdx {
		if str(t) == sampleType {
			col = i
		}
	}
	if col < 0 {
		return nil, fmt.Errorf("no %q sample type", sampleType)
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		if col >= len(s.values) {
			return nil, errors.New("sample with too few values")
		}
		st := stack{value: int64(s.values[col])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				st.funcs = append(st.funcs, str(funcNames[fn]))
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// walk calls fn for each field of a protobuf message: v carries varint and
// fixed-width values, msg the bytes of length-delimited ones.
func walk(b []byte, fn func(num int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		var v uint64
		var msg []byte
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errors.New("bad length")
			}
			msg, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, msg); err != nil {
			return err
		}
	}
	return nil
}

// appendInts appends a repeated integer field's value: one varint, or a
// packed run of them when packed is non-nil.
func appendInts(dst []uint64, v uint64, packed []byte) ([]uint64, error) {
	if packed == nil {
		return append(dst, v), nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return nil, errors.New("bad packed varint")
		}
		dst, packed = append(dst, x), packed[n:]
	}
	return dst, nil
}
