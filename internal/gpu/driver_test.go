package gpu

import (
	"testing"

	"mgpucompress/internal/mem"
	"mgpucompress/internal/sim"
)

func TestDriverRejectsInvalidKernels(t *testing.T) {
	engine := sim.NewEngine()
	part := engine.Partition(0)
	space := mem.NewSpace(4)
	d := NewDriver("Driver", part, space)

	if err := d.Launch(&Kernel{Name: "k", NumWorkgroups: 0,
		Program: &testProgram{}}); err == nil {
		t.Error("zero-workgroup kernel accepted")
	}
	if err := d.Launch(&Kernel{Name: "k", NumWorkgroups: 1}); err == nil {
		t.Error("program-less kernel accepted")
	}
}

func TestDriverNoCUs(t *testing.T) {
	engine := sim.NewEngine()
	part := engine.Partition(0)
	space := mem.NewSpace(4)
	d := NewDriver("Driver", part, space)
	// A CP with no CUs attached.
	cp := NewCommandProcessor("CP", part, 0)
	d.CPPorts = []*sim.Port{cp.ToFabric}
	err := d.Launch(&Kernel{Name: "k", NumWorkgroups: 1,
		Program: &testProgram{}})
	if err == nil {
		t.Error("launch with zero CUs accepted")
	}
}

func TestControlMessageSizes(t *testing.T) {
	// Launch commands and completion interrupts are small header-only
	// messages; their sizes are asserted because they enter the fabric
	// traffic accounting.
	if LaunchCmdBytes != 16 || KernelDoneBytes != 4 {
		t.Errorf("control message sizes changed: %d/%d", LaunchCmdBytes, KernelDoneBytes)
	}
	var lc LaunchCmd
	if lc.Meta() == nil {
		t.Error("LaunchCmd has no metadata")
	}
	var kd KernelDone
	if kd.Meta() == nil {
		t.Error("KernelDone has no metadata")
	}
}

// In-package end-to-end launch: driver -> command processor -> CU over a
// direct control connection, with a memory stub standing in for the cache
// hierarchy. Args are empty so no RDMA is involved.
func TestDriverLaunchFlow(t *testing.T) {
	engine := sim.NewEngine()
	part := engine.Partition(0)
	space := mem.NewSpace(4)
	d := NewDriver("Driver", part, space)

	stub := newMemStub(part, 10)
	memConn := sim.NewDirectConnection("cumem", part, 1)
	memConn.Plug(stub.Top)
	var cps []*CommandProcessor
	for g := 0; g < 2; g++ {
		cp := NewCommandProcessor("CP", part, g)
		for i := 0; i < 2; i++ {
			cu := NewCU("CU", part, DefaultCUConfig())
			memConn.Plug(cu.ToL1)
			cu.SetL1(stub.Top)
			cp.CUs = append(cp.CUs, cu)
		}
		cps = append(cps, cp)
		d.CPPorts = append(d.CPPorts, cp.ToFabric)
	}
	ctrl := sim.NewDirectConnection("ctrl", part, 2)
	ctrl.Plug(d.Ctrl)
	for _, cp := range cps {
		ctrl.Plug(cp.ToFabric)
	}
	invalidated := 0
	d.InvalidateL1s = func() { invalidated++ }

	k := &Kernel{
		Name: "probe", NumWorkgroups: 12,
		Program: &testProgram{waves: 1, start: func(w *Wave) {
			data := make([]byte, 64)
			data[0] = byte(w.WG + 1)
			w.Compute(5)
			w.Write(uint64(w.WG)*64, data)
		}},
	}
	if err := d.Launch(k); err != nil {
		t.Fatal(err)
	}
	if d.KernelsLaunched != 1 {
		t.Errorf("KernelsLaunched = %d", d.KernelsLaunched)
	}
	if invalidated != 1 {
		t.Errorf("L1 invalidations = %d, want 1 (kernel boundary)", invalidated)
	}
	for wg := 0; wg < 12; wg++ {
		if got := stub.space.Read(uint64(wg)*64, 1)[0]; got != byte(wg+1) {
			t.Errorf("wg %d marker = %d", wg, got)
		}
	}
	// Workgroups must spread across both CPs (round-robin over all CUs).
	var retired [2]uint64
	for g, cp := range cps {
		for _, cu := range cp.CUs {
			retired[g] += cu.WGsRetired
		}
	}
	if retired[0] != 6 || retired[1] != 6 {
		t.Errorf("retired split = %v, want 6/6", retired)
	}

	// A second launch reuses the same machinery.
	if err := d.Launch(k); err != nil {
		t.Fatal(err)
	}
	if d.KernelsLaunched != 2 || invalidated != 2 {
		t.Errorf("second launch bookkeeping: %d kernels, %d invalidations",
			d.KernelsLaunched, invalidated)
	}
}

// Launching with args requires arg buffers and an RDMA destination; the
// driver must write one padded line per GPU and wait for the acks.
func TestDriverArgWrites(t *testing.T) {
	engine := sim.NewEngine()
	part := engine.Partition(0)
	space := mem.NewSpace(4)
	d := NewDriver("Driver", part, space)

	stub := newMemStub(part, 5) // stands in for the host RDMA path
	memConn := sim.NewDirectConnection("mem", part, 1)
	memConn.Plug(stub.Top)
	memConn.Plug(d.ToRDMA)
	d.RDMAPort = stub.Top

	cp := NewCommandProcessor("CP", part, 0)
	cu := NewCU("CU", part, DefaultCUConfig())
	memConn.Plug(cu.ToL1)
	cu.SetL1(stub.Top)
	cp.CUs = []*CU{cu}
	d.CPPorts = []*sim.Port{cp.ToFabric}
	ctrl := sim.NewDirectConnection("ctrl", part, 2)
	ctrl.Plug(d.Ctrl)
	ctrl.Plug(cp.ToFabric)
	d.ArgBuffers = []mem.Buffer{space.AllocOnGPU(0, 4096)}

	args := []byte{1, 2, 3, 4, 5} // will be padded to one 64-byte line
	k := &Kernel{
		Name: "argk", NumWorkgroups: 1, Args: args,
		Program: &testProgram{waves: 1, start: func(w *Wave) { w.Compute(1) }},
	}
	if err := d.Launch(k); err != nil {
		t.Fatal(err)
	}
	if d.ArgBytesWritten != 64 {
		t.Errorf("ArgBytesWritten = %d, want 64", d.ArgBytesWritten)
	}
	// The stub owns the functional memory on this path.
	got := stub.space.Read(d.ArgBuffers[0].Addr(0), 5)
	for i, b := range args {
		if got[i] != b {
			t.Errorf("arg byte %d = %d, want %d", i, got[i], b)
		}
	}
}
