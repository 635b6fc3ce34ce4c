//go:build poison

package sim

// Poison reports a build with the poison tag: pools quarantine what is
// released, and the releasing packages overwrite it first, so a use after
// release computes garbage (see Pool).
const Poison = true
