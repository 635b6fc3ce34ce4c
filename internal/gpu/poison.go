//go:build poison

package gpu

// poison overwrites a read response's data once its continuation has
// returned, so a program that keeps a reference to borrowed data computes
// garbage and fails its Verify.
func poison(data []byte) {
	for i := range data {
		data[i] = 0xDB
	}
}
