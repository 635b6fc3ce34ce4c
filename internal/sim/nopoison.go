//go:build !poison

package sim

// Poison is false outside poison builds; see poison.go.
const Poison = false
