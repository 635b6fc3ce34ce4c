package platform

import "mgpucompress/internal/sim"

// BuildWith is Build with extra engine options, for the external tests that
// compare window schedules.
func BuildWith(cfg Config, opts ...sim.Option) (*Platform, Partitions) { return build(cfg, opts...) }
