// Package a seeds lockcheck violations.
package a

import "sync"

type counter struct {
	mu sync.Mutex
	n  int // drange:guardedby mu
	ok bool
}

func bad(c *counter) int {
	c.ok = true // unguarded: fine
	return c.n  // want "access to n"
}

func good(c *counter) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

func (c *counter) bumpLocked() { c.n++ }

func (c *counter) badRelockLocked() {
	c.mu.Lock() // want "acquires c.mu"
	c.n++
}

func caller(c *counter) {
	c.bumpLocked() // want "reference to bumpLocked"
}

func okCaller(c *counter) {
	c.mu.Lock()
	c.bumpLocked()
	c.mu.Unlock()
}

func methodValue(c *counter) func() {
	return c.bumpLocked // want "reference to bumpLocked"
}

// newCounter simulates construction-time exclusive access, then breaks its
// own promise by locking.
//
//drange:holds mu
func newCounter() *counter {
	c := &counter{n: 1} // composite literal: not a field access
	c.n = 2
	c.mu.Lock() // want "declares //drange:holds mu but acquires"
	c.mu.Unlock()
	return c
}

// member mirrors a serving member whose screened state has a lock of its own,
// next to an owner's unrelated mu.
type member struct {
	mu       sync.Mutex
	screenMu sync.Mutex
	screened int // drange:guardedby screenMu
}

// wrongLock holds a mutex, but not the one guarding screened: holding some
// lock is not holding the right one.
func wrongLock(m *member) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.screened // want "access to screened \\(guarded by screenMu\\)"
}

func rightLock(m *member) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.screenMu.Lock()
	defer m.screenMu.Unlock()
	return m.screened
}
