package core_test

import (
	"encoding/binary"
	"fmt"

	"mgpucompress/internal/comp"
	"mgpucompress/internal/core"
)

// The adaptive controller samples seven transfers, votes, then locks the
// winner in for the running phase — and bypasses compression when a later
// sampling phase sees incompressible data.
func ExampleAdaptive() {
	ctl := core.NewAdaptive(core.Config{Lambda: 6, SampleCount: 7, RunLength: 10})

	ldr := make([]byte, comp.LineSize)
	for i := 0; i < 8; i++ {
		binary.LittleEndian.PutUint64(ldr[i*8:], 1<<42+uint64(i*7))
	}
	for i := 0; i < 7; i++ {
		ctl.Process(nil, ldr)
	}
	alg, _ := ctl.Selected()
	fmt.Println("after sampling low-dynamic-range data:", alg)

	d := ctl.Process(nil, ldr)
	fmt.Printf("running phase ships %d-byte payloads tagged %v\n", d.WireBytes(), d.Alg)
	// Output:
	// after sampling low-dynamic-range data: BDI
	// running phase ships 18-byte payloads tagged BDI
}

// Eq. (1): P = N + λ(Lc + Ld).
func ExamplePenalty() {
	// BDI compressed a line to 140 bits; λ=6 charges its 2+1 cycles.
	fmt.Println(core.Penalty(6, 140, 2, 1))
	// The bypass candidate: 512 bits, no codec latency.
	fmt.Println(core.Penalty(6, 512, 0, 0))
	// Output:
	// 158
	// 512
}
