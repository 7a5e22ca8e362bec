package dataspaces

import (
	"fmt"
	"sync"
)

// Credits is the transit tier's explicit credit account: the
// free-bucket list plus the bounded task-queue depth expressed as a
// fixed supply of credits. A producer acquires one credit per
// in-transit task *before* registering producer regions and keeps it
// until the task's final Result (success, handler error, or
// dead-letter) settles it — so the simulation never submits work the
// transit tier cannot absorb, and backpressure surfaces as an instant,
// non-blocking denial instead of unbounded queue growth. The service
// holds no account: the producer owns it and settles it, and a task
// only carries the name of the account its credit came from
// (TaskSpec.Account).
//
// Per-analysis reservations carve a guaranteed minimum out of the
// supply so one slow analysis cannot starve the others; the remainder
// is a shared pool. Acquire draws from the caller's reservation first,
// then the shared pool; Release refills in the same order. The
// invariant Outstanding() + Available() == Total() holds at all times,
// which is what the drain-time leak check asserts.
type Credits struct {
	mu          sync.Mutex
	total       int
	shared      int
	reserved    map[string]*reservation
	outstanding int
}

type reservation struct {
	cap   int
	avail int
}

// NewCredits creates an account of `total` credits with the given
// per-analysis reservations (which must sum to at most total).
func NewCredits(total int, reservations map[string]int) (*Credits, error) {
	if total < 1 {
		return nil, fmt.Errorf("dataspaces: need at least one credit, got %d", total)
	}
	c := &Credits{total: total, shared: total, reserved: make(map[string]*reservation)}
	for name, n := range reservations {
		if n < 0 {
			return nil, fmt.Errorf("dataspaces: negative reservation %d for %q", n, name)
		}
		if n > c.shared {
			return nil, fmt.Errorf("dataspaces: reservations exceed the credit supply (%d)", total)
		}
		c.shared -= n
		c.reserved[name] = &reservation{cap: n, avail: n}
	}
	return c, nil
}

// Acquire takes one credit for the named analysis, reservation first,
// shared pool second. It never blocks: false means the transit tier is
// saturated and the caller must degrade instead of submitting.
func (c *Credits) Acquire(analysis string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r := c.reserved[analysis]; r != nil && r.avail > 0 {
		r.avail--
		c.outstanding++
		return true
	}
	if c.shared > 0 {
		c.shared--
		c.outstanding++
		return true
	}
	return false
}

// Release returns one credit for the named analysis, refilling its
// reservation before the shared pool. Releasing more than was acquired
// panics: that is a double-settle bug, the credit analogue of a
// double-recycled buffer.
func (c *Credits) Release(analysis string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.outstanding == 0 {
		panic("dataspaces: credit released but none outstanding")
	}
	c.outstanding--
	if r := c.reserved[analysis]; r != nil && r.avail < r.cap {
		r.avail++
		return
	}
	c.shared++
}

// Exhausted reports whether an Acquire for the analysis would be
// denied right now.
func (c *Credits) Exhausted(analysis string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r := c.reserved[analysis]; r != nil && r.avail > 0 {
		return false
	}
	return c.shared == 0
}

// Outstanding returns the credits currently held by producers.
func (c *Credits) Outstanding() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.outstanding
}

// Available returns the credits currently grantable (shared pool plus
// all reservation remainders).
func (c *Credits) Available() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.shared
	for _, r := range c.reserved {
		n += r.avail
	}
	return n
}

// Total returns the fixed credit supply.
func (c *Credits) Total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

// Snapshot returns (outstanding, available, total) read under one
// lock, so the invariant outstanding + available == total can be
// asserted atomically while other goroutines churn the account.
func (c *Credits) Snapshot() (outstanding, available, total int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	available = c.shared
	for _, r := range c.reserved {
		available += r.avail
	}
	return c.outstanding, available, c.total
}
