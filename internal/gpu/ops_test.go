package gpu

import "testing"

func TestKernelValidate(t *testing.T) {
	ok := &Kernel{Name: "k", NumWorkgroups: 1, Program: &testProgram{}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid kernel rejected: %v", err)
	}
	noWG := &Kernel{Name: "k", NumWorkgroups: 0, Program: &testProgram{}}
	if err := noWG.Validate(); err == nil {
		t.Error("kernel with zero workgroups accepted")
	}
	noProg := &Kernel{Name: "k", NumWorkgroups: 1}
	if err := noProg.Validate(); err == nil {
		t.Error("kernel without program accepted")
	}
}

// TestOpTypesImplementOp checks that each emit method puts an operation of
// its kind on the stream, and that a call's operations run in emission
// order ahead of what was already pending.
func TestOpTypesImplementOp(t *testing.T) {
	w := &Wave{}
	w.Compute(3)
	w.seal()
	w.mark = len(w.ops)
	w.Read(64, 64, nil, 7)
	w.Write(128, []byte{1})
	w.Barrier()
	w.seal()
	want := []struct {
		kind opKind
		addr uint64
	}{{opRead, 64}, {opWrite, 128}, {opBarrier, 0}, {opCompute, 0}}
	for i, x := range want {
		if !w.more() {
			t.Fatalf("stream ended after %d ops", i)
		}
		if o := w.head(); o.kind != x.kind || o.addr != x.addr {
			t.Errorf("op %d = kind %d addr %d, want kind %d addr %d", i, o.kind, o.addr, x.kind, x.addr)
		}
		w.pop()
	}
	if len(w.ops) != 0 {
		t.Errorf("%d ops left", len(w.ops))
	}
}
