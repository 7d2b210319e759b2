package partition

import (
	"maps"
	"math"
)

// span is what the sweep knows of the step time one candidate's solve
// returns. A resolved candidate's is exact: lo == hi == its step time,
// or none when it has no partition, or failed when its solve or pricing
// failed. An unresolved candidate's step time lies in [lo, hi]; none
// says it may also come back with no partition.
type span struct {
	resolved     bool
	none, failed bool
	lo, hi       float64
}

// verdict is a sweep's outcome: the chosen candidate (-1 none,
// len(spans) the min-stage partition) and how many candidates the
// patience rule tried. failed marks a sweep stopped by the failure of
// its last tried candidate, which chosen then names.
type verdict struct {
	chosen, tried int
	failed        bool
}

// replay runs the sweep's in-order patience replay over spans, with
// strict < and the min-stage comparison against tMS last (+Inf when
// there is no min-stage partition), for every outcome the spans allow.
// When they all end in one verdict whose chosen candidate is resolved,
// it returns that verdict and stuck = -1. Otherwise stuck is the
// unresolved candidate to resolve next: the one compared where the
// verdicts first part, or the chosen one when they agree.
//
// The replay forgets what a comparison taught it about the values
// compared, so it may see verdicts no outcome reaches, and resolve a
// candidate it did not need to; it never misses one.
func replay(spans []span, tMS float64) (v verdict, stuck int) {
	r := &replayer{spans: spans, tMS: tMS, memo: map[[3]int]walk{}}
	w := r.walk(0, -1, 0)
	if len(w.ends) != 1 {
		return verdict{}, w.stuck
	}
	for v = range w.ends {
	}
	if v.chosen >= 0 && v.chosen < len(spans) && !spans[v.chosen].resolved {
		return verdict{}, v.chosen
	}
	return v, -1
}

type replayer struct {
	spans []span
	tMS   float64
	memo  map[[3]int]walk
}

// walk is the set of verdicts reachable from one replay state, and the
// candidate to resolve for them to agree (-1 when they do).
type walk struct {
	ends  map[verdict]bool
	stuck int
}

// value bounds the step time of the best candidate so far, +Inf with
// none, as the replay starts from Infeasible.
func (r *replayer) value(best int) (lo, hi float64) {
	if best < 0 {
		return math.Inf(1), math.Inf(1)
	}
	return r.spans[best].lo, r.spans[best].hi
}

// walk replays from candidate i with best the best candidate so far and
// since the non-improving candidates since it.
func (r *replayer) walk(i, best, since int) walk {
	key := [3]int{i, best, since}
	if w, ok := r.memo[key]; ok {
		return w
	}
	end := func(v verdict) walk { return walk{ends: map[verdict]bool{v: true}, stuck: -1} }
	n := len(r.spans)
	lo, hi := r.value(best)
	var next []walk
	blame := best
	if i == n {
		if r.tMS < hi {
			next = append(next, end(verdict{chosen: n, tried: n}))
		}
		if !(r.tMS < lo) {
			next = append(next, end(verdict{chosen: best, tried: n}))
		}
	} else {
		c := r.spans[i]
		if !c.resolved {
			blame = i
		}
		switch {
		case c.failed:
			next = append(next, end(verdict{chosen: i, tried: i + 1, failed: true}))
		case c.resolved && c.none:
			next = append(next, r.walk(i+1, best, since))
		default:
			if c.none {
				next = append(next, r.walk(i+1, best, since))
			}
			if c.lo < hi {
				next = append(next, r.walk(i+1, i, 0))
			}
			if !(c.hi < lo) {
				if since+1 >= mipPatience {
					next = append(next, end(verdict{chosen: best, tried: i + 1}))
				} else {
					next = append(next, r.walk(i+1, best, since+1))
				}
			}
		}
	}

	w := walk{ends: map[verdict]bool{}, stuck: -1}
	parted := false
	for _, s := range next {
		maps.Copy(w.ends, s.ends)
		parted = parted || !maps.Equal(s.ends, next[0].ends)
		if w.stuck < 0 {
			w.stuck = s.stuck
		}
	}
	if parted || len(next) == 0 {
		// A span with lo > hi and no none allows no outcome: resolve it.
		w.stuck = blame
	}
	r.memo[key] = w
	return w
}
