package resil

// Breaker is a closed/open/half-open circuit breaker on the caller's
// clock, in virtual float seconds (the fleet's dispatch breakers): every
// method that needs the time takes it as now, so the breaker stores no
// clock.
// Threshold consecutive failures while closed trip it open; once
// Cooldown has passed since it opened, the next Allow admits exactly one
// half-open probe. A probe's Success closes it, a probe's Failure
// reopens it for a fresh cooldown. A Breaker is not safe for concurrent
// use; callers serialize it.
type Breaker struct {
	Threshold int
	Cooldown  float64

	state    breakerState
	fails    int // consecutive failures while closed
	openedAt float64
}

type breakerState int

const (
	closed breakerState = iota
	open
	halfOpen
)

// Allow reports whether a request may go through now, and whether it is
// the half-open probe. An open breaker past its cooldown turns half-open
// and admits this one request; while the probe is out, everything else
// is rejected.
func (b *Breaker) Allow(now float64) (ok, probe bool) {
	switch b.state {
	case closed:
		return true, false
	case open:
		if now-b.openedAt >= b.Cooldown {
			b.state = halfOpen
			return true, true
		}
	}
	return false, false
}

// Routable is Allow's verdict without the transition: closed, or open
// past its cooldown (choosing it would probe). It never mutates.
func (b *Breaker) Routable(now float64) bool {
	switch b.state {
	case closed:
		return true
	case open:
		return now-b.openedAt >= b.Cooldown
	}
	return false
}

// Success records a request that went through; a probe's success closes
// the breaker, and any success resets the failure count.
func (b *Breaker) Success() {
	b.state = closed
	b.fails = 0
}

// Failure records a failed request and reports whether it tripped the
// breaker open, a failed probe reopening it included.
func (b *Breaker) Failure(now float64) (tripped bool) {
	if b.state == halfOpen {
		b.state = open
		b.openedAt = now
		return true
	}
	b.fails++
	if b.state == closed && b.fails >= b.Threshold {
		b.state = open
		b.openedAt = now
		b.fails = 0
		return true
	}
	return false
}

// State names the breaker's position: "closed", "open" or "half-open".
func (b *Breaker) State() string {
	switch b.state {
	case open:
		return "open"
	case halfOpen:
		return "half-open"
	}
	return "closed"
}
