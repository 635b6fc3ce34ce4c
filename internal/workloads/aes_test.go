package workloads

import (
	"crypto/aes"
	"testing"

	"mgpucompress/internal/mem"
	"mgpucompress/internal/stats"
)

// The device ciphertext must decrypt back to the plaintext under the same
// key — a stronger end-to-end check than comparing against re-encryption.
func TestAESCiphertextDecrypts(t *testing.T) {
	a := NewAES(ScaleTiny)
	p := testPlatform(nil)
	if err := a.Setup(p); err != nil {
		t.Fatal(err)
	}
	if err := a.Run(p); err != nil {
		t.Fatal(err)
	}
	block, err := aes.NewCipher(a.key)
	if err != nil {
		t.Fatal(err)
	}
	for wg := 0; wg < a.numWGs; wg += 7 { // sample
		g, outLine := a.outputSlot(p, wg)
		for i := 0; i < a.linesPerWG; i++ {
			ct := a.outputs[g].Read(uint64(outLine+i)*mem.LineSize, mem.LineSize)
			pt := make([]byte, mem.LineSize)
			for b := 0; b < mem.LineSize; b += aes.BlockSize {
				block.Decrypt(pt[b:b+aes.BlockSize], ct[b:b+aes.BlockSize])
			}
			want := a.input.Read(uint64(wg*a.linesPerWG+i)*mem.LineSize, mem.LineSize)
			for j := range pt {
				if pt[j] != want[j] {
					t.Fatalf("wg %d line %d byte %d: decrypt mismatch", wg, i, j)
				}
			}
		}
	}
}

// AES-256 requires a 32-byte key.
func TestAESKeyLength(t *testing.T) {
	a := NewAES(ScaleTiny)
	p := testPlatform(nil)
	if err := a.Setup(p); err != nil {
		t.Fatal(err)
	}
	if len(a.key) != 32 {
		t.Errorf("key length %d, want 32 (AES-256)", len(a.key))
	}
}

// Ciphertext entropy must be ≈1 — the property behind AES's Table V row.
func TestAESCiphertextEntropy(t *testing.T) {
	a := NewAES(ScaleTiny)
	p := testPlatform(nil)
	if err := a.Setup(p); err != nil {
		t.Fatal(err)
	}
	if err := a.Run(p); err != nil {
		t.Fatal(err)
	}
	var all []byte
	for wg := 0; wg < a.numWGs; wg++ {
		g, outLine := a.outputSlot(p, wg)
		all = append(all, a.outputs[g].Read(uint64(outLine)*mem.LineSize,
			a.linesPerWG*mem.LineSize)...)
	}
	if e := stats.ByteEntropy(all); e < 0.97 {
		t.Errorf("ciphertext entropy = %.3f, want ≈1", e)
	}
}

// Output partitions must be local to the GPU that computes them (the
// write-locality that makes AES read-dominated in Table V).
func TestAESOutputLocality(t *testing.T) {
	a := NewAES(ScaleTiny)
	p := testPlatform(nil)
	if err := a.Setup(p); err != nil {
		t.Fatal(err)
	}
	for wg := 0; wg < a.numWGs; wg++ {
		g, outLine := a.outputSlot(p, wg)
		addr := a.outputs[g].Addr(uint64(outLine) * mem.LineSize)
		if owner := p.Space.GPUOf(addr); owner != g {
			t.Fatalf("wg %d writes to GPU %d memory but runs on GPU %d", wg, owner, g)
		}
	}
}
