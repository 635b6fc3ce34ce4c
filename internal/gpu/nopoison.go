//go:build !poison

package gpu

// poison is a no-op outside poison builds; see poison.go.
func poison([]byte) {}
