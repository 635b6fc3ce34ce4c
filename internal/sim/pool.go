package sim

import "fmt"

// PoolMark is embedded in every type a Pool hands out. It records whether
// the value is live: taken and not yet released.
type PoolMark struct{ live bool }

func (m *PoolMark) poolMark() *PoolMark { return m }

// Pool recycles values of type T through a free list, the get/free idiom of
// a shared data buffer: Take hands out a zeroed *T, Release takes it back,
// and Live counts the values taken and not yet released. A value is
// released exactly once, by its last owner; releasing a value that is not
// live panics in every build. Under the poison build tag a released value
// is quarantined instead of reused, so a use after release reads whatever
// the releaser poisoned it with, and a second release panics.
//
// A Pool is not safe for concurrent use: it belongs to one partition. The
// zero value is an empty pool, and once the pool has reached its peak live
// count, Take and Release allocate nothing.
type Pool[T any, P interface {
	*T
	poolMark() *PoolMark
}] struct {
	free []P
	live int
}

// Take returns a zeroed live value, recycled when one is free.
func (p *Pool[T, P]) Take() P {
	var v P
	if n := len(p.free); n > 0 {
		v = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		v = new(T)
	}
	v.poolMark().live = true
	p.live++
	return v
}

// Release returns v to the pool. v must be live; the caller keeps no
// reference to it.
func (p *Pool[T, P]) Release(v P) {
	m := v.poolMark()
	if !m.live {
		panic(fmt.Sprintf("sim: release of a %T that is not live", v))
	}
	p.live--
	if Poison {
		m.live = false
		return
	}
	var zero T
	*v = zero
	p.free = append(p.free, v)
}

// Live returns the number of values taken and not yet released.
func (p *Pool[T, P]) Live() int { return p.live }
