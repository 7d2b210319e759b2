package sim

import "fmt"

// MemPool models a finite memory capacity (bytes) with blocking
// allocation. Alloc tasks complete once capacity is available; waiters are
// served strictly FIFO, which keeps schedules deterministic and prevents
// starvation. Free tasks return capacity immediately.
type MemPool struct {
	id       int
	name     string
	capacity float64
	used     float64
	peak     float64
	waiters  []*Task
}

// Name returns the pool's label.
func (p *MemPool) Name() string { return p.name }

// Capacity returns the pool's total capacity in bytes.
func (p *MemPool) Capacity() float64 { return p.capacity }

// Used returns the currently allocated bytes.
func (p *MemPool) Used() float64 { return p.used }

// Peak returns the high-water mark of allocated bytes.
func (p *MemPool) Peak() float64 { return p.peak }

// OOMError reports an allocation that can never succeed because the
// requested amount exceeds the pool's total capacity. It converts what
// would otherwise be a deadlock into a structured out-of-memory event
// naming the task.
type OOMError struct {
	Pool     string  // pool name
	Task     string  // name of the requesting task
	Need     float64 // bytes requested
	Capacity float64 // pool capacity at the time of the request
}

func (e *OOMError) Error() string {
	return fmt.Sprintf("sim: pool %q out of memory: task %q needs %.3g bytes but capacity is %.3g", e.Pool, e.Task, e.Need, e.Capacity)
}

// MemAccountError reports a Free task returning more bytes to a pool than
// are currently allocated (a double free in the generated DAG).
type MemAccountError struct {
	Pool  string  // pool name
	Task  string  // name of the over-freeing task
	Freed float64 // bytes the free attempted to return
	Below float64 // bytes the pool would have gone below zero
}

func (e *MemAccountError) Error() string {
	return fmt.Sprintf("sim: pool %q freed below zero by task %q (freed %.3g, %.3g below zero)", e.Pool, e.Task, e.Freed, e.Below)
}

// tryAlloc attempts an allocation; it fails if capacity is insufficient or
// earlier waiters are queued (FIFO fairness).
func (p *MemPool) tryAlloc(t *Task) bool {
	if len(p.waiters) > 0 {
		return false
	}
	return p.allocNow(t.size)
}

func (p *MemPool) allocNow(amount float64) bool {
	if p.used+amount > p.capacity+memEpsilon {
		return false
	}
	p.used += amount
	if p.used > p.peak {
		p.peak = p.used
	}
	return true
}

// release returns amount to the pool and pops every FIFO waiter that now
// fits. It returns the tasks whose allocations succeeded, plus how far
// below zero the free pushed the accounting (0 for a well-formed free);
// the caller turns a positive value into a *MemAccountError naming the
// offending task.
func (p *MemPool) release(amount float64) (woken []*Task, below float64) {
	p.used -= amount
	if p.used < -memEpsilon {
		below = -p.used
		p.used = 0
		return nil, below
	}
	if p.used < 0 {
		p.used = 0
	}
	for len(p.waiters) > 0 {
		head := p.waiters[0]
		if !p.allocNow(head.size) {
			break
		}
		p.waiters = p.waiters[1:]
		woken = append(woken, head)
	}
	return woken, 0
}

// memEpsilon absorbs floating-point dust in capacity comparisons.
const memEpsilon = 1e-6
