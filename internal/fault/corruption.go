package fault

import (
	"fmt"

	"mobius/internal/resil"
	"mobius/internal/sim"
)

// This file declares silent-data-corruption injection: seed-driven
// bit-flip / garbled-payload events on transfers (link traffic and
// checkpoint writes alike — a checkpoint write is a transfer across
// "drambus"/"ssd", so a rule matching those resources corrupts it).
// Binding installs a sim.CorruptionPolicy; whether a corrupted delivery
// is detected (checksummed retransmit, bounded by the simulator's
// budget) or accepted silently (tainting every consumer downstream) is
// decided by the run's sim.ChecksumConfig, not by the spec — the same
// scenario can be priced with and without detection.

// CorruptionFault corrupts delivery attempts of matching transfers. Each
// attempt of a matching transfer arrives corrupted independently with
// Probability, decided by the deterministic per-(seed, task, rule,
// attempt) hash.
type CorruptionFault struct {
	// Match selects transfers whose route crosses the named resource
	// ("rc0", "gpu2.link", "ssd", ...); "*" matches every transfer. The
	// first matching rule in spec order decides a transfer's fate.
	Match string `json:"match"`
	// Probability of each delivery attempt arriving corrupted; [0, 1).
	Probability float64 `json:"probability"`
}

// corruptionSalt offsets the seed of the corruption hash stream. It is
// fixed: changing it would move the corrupted deliveries of every
// existing spec and seed.
const corruptionSalt int64 = 0x7c15bd1e

// validateCorruptions checks the corruption clauses against their
// documented ranges.
func (s *Spec) validateCorruptions() error {
	for i, c := range s.Corruptions {
		if c.Match == "" {
			return fmt.Errorf("fault: corruptions[%d]: missing match", i)
		}
		if c.Probability < 0 || c.Probability >= 1 {
			return fmt.Errorf("fault: corruptions[%d] (%s): probability %g out of range [0, 1)", i, c.Match, c.Probability)
		}
	}
	return nil
}

// corruptionPolicy returns the sim.CorruptionPolicy Apply installs on s:
// the first rule matching the transfer's route, which s keeps, decides
// whether this delivery attempt is corrupted, drawn from the
// deterministic per-(seed, task, rule, attempt) hash.
func (inj *Injection) corruptionPolicy(s *sim.Sim) sim.CorruptionPolicy {
	return func(t *sim.Task, attempt int) bool { return inj.corrupts(s.PathOf(t), t.ID(), attempt) }
}

func (inj *Injection) corrupts(path []sim.PathElem, id, attempt int) bool {
	for ri, rule := range inj.Spec.Corruptions {
		if !matchesRoute(rule.Match, path) {
			continue
		}
		if rule.Probability <= 0 {
			return false
		}
		if resil.Hash01(inj.Spec.Seed^corruptionSalt, uint64(id), uint64(ri), uint64(attempt)) < rule.Probability {
			inj.Corruptions++
			return true
		}
		return false
	}
	return false
}

// matchesRoute reports whether a rule's match ("*" or a resource name)
// selects a transfer routed over path.
func matchesRoute(match string, path []sim.PathElem) bool {
	if match == "*" {
		return true
	}
	for _, pe := range path {
		if pe.Res.Name() == match {
			return true
		}
	}
	return false
}
