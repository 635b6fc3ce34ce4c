package workloads

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"fmt"

	"mgpucompress/internal/gpu"
	"mgpucompress/internal/mem"
	"mgpucompress/internal/platform"
)

// AES implements the Table IV AES benchmark: 256-bit AES encryption over a
// large input. The plaintext is high-entropy binary data (matching the
// paper's observation that AES inter-GPU traffic is "almost random",
// entropy 0.96), striped across the four GPUs; each workgroup encrypts a
// contiguous chunk and writes the ciphertext into a partition local to its
// GPU, so remote reads dominate remote writes as in Table V.
type AES struct {
	seeded
	scale Scale

	key        []byte
	input      mem.Buffer
	outputs    []mem.Buffer // one per GPU
	totalLines int
	linesPerWG int
	numWGs     int
	wavesPerWG int
}

// NewAES builds the AES benchmark.
func NewAES(scale Scale) *AES { return &AES{scale: scale} }

// Abbrev implements Workload.
func (a *AES) Abbrev() string { return "AES" }

// Name implements Workload.
func (a *AES) Name() string { return "Advanced Encryption Standard" }

// Description implements Workload.
func (a *AES) Description() string {
	return "256-bit encryption AES involves a large number of bitwise and shifting operations."
}

// Setup implements Workload.
func (a *AES) Setup(p *platform.Platform) error {
	r := a.rng(0xAE5)
	a.key = make([]byte, 32)
	r.Read(a.key)

	a.totalLines = 256 * int(a.scale)
	a.linesPerWG = 4
	a.numWGs = a.totalLines / a.linesPerWG
	a.wavesPerWG = 2

	a.input = p.Space.AllocStriped(uint64(a.totalLines * mem.LineSize))
	plaintext := make([]byte, a.totalLines*mem.LineSize)
	r.Read(plaintext)
	a.input.Write(0, plaintext)

	perGPU := a.gpuPartitionLines(p) * mem.LineSize
	a.outputs = a.outputs[:0]
	for g := range p.GPUs {
		a.outputs = append(a.outputs, p.Space.AllocOnGPU(g, uint64(perGPU)))
	}
	return nil
}

// gpuPartitionLines returns the output partition size per GPU in lines.
func (a *AES) gpuPartitionLines(p *platform.Platform) int {
	totalCUs := p.TotalCUs()
	cusPerGPU := len(p.GPUs[0].CUs)
	maxRanks := (a.numWGs + totalCUs - 1) / totalCUs * cusPerGPU
	return maxRanks * a.linesPerWG
}

// outputSlot returns (gpu, line offset) for workgroup wg's output.
func (a *AES) outputSlot(p *platform.Platform, wg int) (int, int) {
	totalCUs := p.TotalCUs()
	cusPerGPU := len(p.GPUs[0].CUs)
	cu := wg % totalCUs
	g := cu / cusPerGPU
	rank := wg/totalCUs*cusPerGPU + (cu - g*cusPerGPU)
	return g, rank * a.linesPerWG
}

// Run implements Workload.
func (a *AES) Run(p *platform.Platform) error {
	block, err := aes.NewCipher(a.key)
	if err != nil {
		return err
	}
	k := &gpu.Kernel{
		Name:          "aes256_encrypt",
		NumWorkgroups: a.numWGs,
		Args: argsBlock(
			[]uint64{a.input.Base(), a.outputs[0].Base()},
			[]uint32{uint32(a.totalLines * mem.LineSize), 256},
		),
		Program: &aesEncrypt{a: a, p: p, block: block},
	}
	return p.Driver.Launch(k)
}

// aesEncrypt is the encryption kernel: each of a workgroup's wavefronts
// reads its share of the lines one at a time (Step is the line within the
// share, also the read's arg) and writes each line's ciphertext to the
// GPU-local output partition.
type aesEncrypt struct {
	a     *AES
	p     *platform.Platform
	block cipher.Block
}

func (k *aesEncrypt) Waves(int) int { return k.a.wavesPerWG }

func (k *aesEncrypt) perWave() int { return k.a.linesPerWG / k.a.wavesPerWG }

func (k *aesEncrypt) Next(w *gpu.Wave) {
	i := w.Step
	if i == k.perWave() {
		return
	}
	w.Step++
	line := w.WG*k.a.linesPerWG + w.Index*k.perWave() + i
	w.Read(k.a.input.Addr(uint64(line)*mem.LineSize), mem.LineSize, k, i)
}

func (k *aesEncrypt) Resume(w *gpu.Wave, data []byte, i int) {
	ct := gpu.StateOf[[mem.LineSize]byte](w)
	for b := 0; b < mem.LineSize; b += aes.BlockSize {
		k.block.Encrypt(ct[b:b+aes.BlockSize], data[b:b+aes.BlockSize])
	}
	g, outLine := k.a.outputSlot(k.p, w.WG)
	dst := k.a.outputs[g].Addr(uint64(outLine+w.Index*k.perWave()+i) * mem.LineSize)
	// ~14 rounds of SubBytes/ShiftRows/MixColumns per block, 4 blocks per
	// line.
	w.Compute(80)
	w.Write(dst, ct[:])
}

// Verify implements Workload.
func (a *AES) Verify(p *platform.Platform) error {
	block, err := aes.NewCipher(a.key)
	if err != nil {
		return err
	}
	for wg := 0; wg < a.numWGs; wg++ {
		g, outLine := a.outputSlot(p, wg)
		for i := 0; i < a.linesPerWG; i++ {
			in := a.input.Read(uint64(wg*a.linesPerWG+i)*mem.LineSize, mem.LineSize)
			want := make([]byte, mem.LineSize)
			for b := 0; b < mem.LineSize; b += aes.BlockSize {
				block.Encrypt(want[b:b+aes.BlockSize], in[b:b+aes.BlockSize])
			}
			got := a.outputs[g].Read(uint64(outLine+i)*mem.LineSize, mem.LineSize)
			if !bytes.Equal(got, want) {
				return fmt.Errorf("AES: workgroup %d line %d ciphertext mismatch", wg, i)
			}
		}
	}
	return nil
}
