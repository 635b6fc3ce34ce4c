// Package gpu models the compute side of the simulated multi-GPU system:
// compute units executing wavefront operation streams, per-GPU command
// processors, and the host driver that presents the four GPUs as a single
// logical device (Sec. II) — dispatching each kernel's workgroups
// round-robin across all CUs of all GPUs (Sec. VI-A) and shipping kernel
// argument blocks over the same fabric that carries inter-GPU data
// (Sec. VI-B).
//
// Instead of executing GCN3 machine code, workloads express each kernel as
// per-wavefront operation streams (compute delays, coalesced line reads and
// writes, barriers) over real addresses with real data. See DESIGN.md for
// why this substitution preserves the paper's measurements.
//
// A stream is generated, not materialised: the kernel's Program emits a
// wavefront's next operations from per-wavefront iterator state (Wave.Step,
// Wave.State) whenever the wavefront has none left, and a read may name a
// Continuation that receives the read's data and emits follow-up operations.
// This is how data-dependent kernels (e.g. gradient averaging) are
// expressed. Operations are small values kept on one reusable per-wavefront
// stack, and the memory requests it issues come from the partition's
// message pool, so running a stream allocates nothing.
//
// Borrow contract: the data a Continuation receives is valid only during
// the call, and a write's data only until the CU issues it (the request
// carries a copy). A program copies what it keeps into its own state. The
// CU releases every response once its continuation returns; under the
// poison build tag a released response's data is overwritten, so a kept
// reference shows up as wrong results.
package gpu

import (
	"fmt"

	"mgpucompress/internal/sim"
)

// opKind tells the operations of a wavefront stream apart.
type opKind uint8

const (
	// opCompute models ALU work: the wavefront stays busy for n cycles.
	opCompute opKind = iota
	// opRead is a coalesced read of n bytes at addr. The wavefront blocks
	// until the data returns, then then.Resume (if set) runs with it.
	opRead
	// opWrite is a posted write of data at addr. The wavefront continues
	// immediately; the workgroup only completes once every posted write is
	// acknowledged.
	opWrite
	// opBarrier synchronizes the workgroup: every wavefront must reach the
	// barrier and all of the workgroup's posted writes must be acknowledged
	// before any wavefront proceeds (s_barrier + s_waitcnt).
	opBarrier
)

// op is one wavefront-level operation, a compact value: a continuation is
// an interface holding a single pointer plus an int argument, so emitting
// one allocates nothing.
type op struct {
	addr uint64
	data []byte
	then Continuation
	arg  int
	n    int32
	kind opKind
}

// Program generates the operation streams of a kernel's workgroups.
type Program interface {
	// Waves returns the number of wavefronts workgroup wg runs. Zero
	// retires the workgroup as soon as it is activated.
	Waves(wg int) int
	// Next emits the next operations of w's stream. The CU calls it when
	// every operation emitted so far has been popped; a call that emits
	// nothing ends the stream. Next must depend only on w's iterator state,
	// never on simulated memory: data reaches a program only through
	// continuations.
	Next(w *Wave)
}

// Continuation receives the data of a completed read. The operations it
// emits run before the rest of the wavefront's stream. data is borrowed:
// it is valid only during the call.
type Continuation interface {
	Resume(w *Wave, data []byte, arg int)
}

// Wave is one wavefront as its Program sees it: identity, iterator state,
// and the emit methods. The CU recycles Waves across workgroups, keeping
// the op stack's capacity and State.
type Wave struct {
	// WG is the workgroup and Index the wavefront's position within it.
	WG, Index int
	// Step is the program's iterator position: zero when the stream
	// starts, advanced only by the program.
	Step int
	// State is program-owned per-wavefront state; see StateOf.
	State any

	prog Program
	wg   *wgInstance
	// ops is the pending stream as a stack: the next operation is the last
	// element. An emitting call appends in program order and seal reverses
	// what it appended, so a continuation's operations land in front of the
	// rest of the stream without moving it.
	ops  []op
	mark int

	busyUntil sim.Time
	waiting   bool // blocked on an outstanding read
	atBarrier bool
	done      bool
}

// StateOf returns w's per-wavefront state as a *T. The state survives the
// Wave's recycling, so a new one is allocated only when the Wave last ran a
// program with a different state type; the program resets what it relies
// on when w.Step is zero.
func StateOf[T any](w *Wave) *T {
	if st, ok := w.State.(*T); ok {
		return st
	}
	st := new(T)
	w.State = st
	return st
}

// Compute emits ALU work of the given cycles.
func (w *Wave) Compute(cycles int) {
	w.ops = append(w.ops, op{kind: opCompute, n: int32(cycles)})
}

// Read emits a coalesced read of n bytes at addr (normally one 64-byte
// line). If then is non-nil, then.Resume(w, data, arg) runs when the data
// returns.
func (w *Wave) Read(addr uint64, n int, then Continuation, arg int) {
	w.ops = append(w.ops, op{kind: opRead, addr: addr, n: int32(n), then: then, arg: arg})
}

// Write emits a posted write of data at addr. The CU copies data into the
// request when the write issues, so data must stay unchanged until then:
// a buffer written by a continuation may be reused by the continuation of
// any read emitted after the write.
func (w *Wave) Write(addr uint64, data []byte) {
	w.ops = append(w.ops, op{kind: opWrite, addr: addr, data: data})
}

// Barrier emits a workgroup barrier.
func (w *Wave) Barrier() {
	w.ops = append(w.ops, op{kind: opBarrier})
}

// seal puts the operations emitted since mark in front of the stream.
func (w *Wave) seal() {
	s := w.ops[w.mark:]
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

// more reports whether w has an operation left, asking the program for the
// next ones when the stack is empty.
func (w *Wave) more() bool {
	if len(w.ops) == 0 {
		w.mark = 0
		w.prog.Next(w)
		w.seal()
	}
	return len(w.ops) > 0
}

// resume runs a completed read's continuation, putting the operations it
// emits in front of the rest of the stream.
func (w *Wave) resume(then Continuation, data []byte, arg int) {
	w.mark = len(w.ops)
	then.Resume(w, data, arg)
	w.seal()
}

// head returns the next operation.
func (w *Wave) head() *op { return &w.ops[len(w.ops)-1] }

// pop removes the next operation, clearing its references.
func (w *Wave) pop() {
	w.ops[len(w.ops)-1] = op{}
	w.ops = w.ops[:len(w.ops)-1]
}

// Kernel describes one device-wide launch.
type Kernel struct {
	// Name identifies the kernel in traces.
	Name string
	// NumWorkgroups is the grid size in workgroups.
	NumWorkgroups int
	// Program generates the operation streams of each workgroup when it is
	// activated on a CU.
	Program Program
	// Args is the kernel argument block the driver writes into each GPU's
	// memory before the launch. Pointers, sizes and padding dominate these
	// bytes, which is exactly the zero-heavy launch metadata the paper
	// observes dominating BS traffic.
	Args []byte
}

// Validate checks the kernel is well-formed.
func (k *Kernel) Validate() error {
	if k.NumWorkgroups <= 0 {
		return fmt.Errorf("gpu: kernel %q has %d workgroups", k.Name, k.NumWorkgroups)
	}
	if k.Program == nil {
		return fmt.Errorf("gpu: kernel %q has no program", k.Name)
	}
	return nil
}
