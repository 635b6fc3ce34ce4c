package sim

import "testing"

type pooled struct {
	PoolMark
	n int
}

// TestPoolTakeRelease: Take hands out zeroed live values and recycles the
// most recently released one; Live counts what is out.
func TestPoolTakeRelease(t *testing.T) {
	var p Pool[pooled, *pooled]
	a, b := p.Take(), p.Take()
	if a == b || p.Live() != 2 {
		t.Fatalf("two takes gave %p and %p with %d live", a, b, p.Live())
	}
	a.n = 7
	p.Release(a)
	if p.Live() != 1 {
		t.Fatalf("%d live after a release, want 1", p.Live())
	}
	c := p.Take()
	if !Poison && c != a {
		t.Error("the released value was not reused")
	}
	if c.n != 0 {
		t.Errorf("taken value not zeroed: n = %d", c.n)
	}
	p.Release(b)
	p.Release(c)
	if p.Live() != 0 {
		t.Errorf("%d live after releasing everything", p.Live())
	}
}

// TestPoolReleasePanicsUnlessLive: releasing a value twice, or one the pool
// never handed out, panics in every build.
func TestPoolReleasePanicsUnlessLive(t *testing.T) {
	var p Pool[pooled, *pooled]
	twice := p.Take()
	p.Release(twice)
	for _, v := range []*pooled{twice, {}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("releasing %p did not panic", v)
				}
			}()
			p.Release(v)
		}()
	}
	if p.Live() != 0 {
		t.Errorf("a rejected release moved the live count to %d", p.Live())
	}
}
