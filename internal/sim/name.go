package sim

import (
	"fmt"
	"strconv"
)

// maxNameInts bounds the integers one task name carries.
const maxNameInts = 3

// Name is the recipe of a task's label: a pattern interned in one Sim
// (Sim.Name) whose literal parts interleave with up to three integers
// (With). Tasks store the recipe, which holds no pointer, and the Sim
// formats it only when an error or a caller asks (TaskName), so building
// a DAG formats no strings. The zero Name is the empty label; any other
// Name belongs to the Sim that interned it.
type Name struct {
	label int32 // 1 + index into Sim.labels; 0 is the empty pattern
	ints  [maxNameInts]int32
	n     uint8
}

// Name interns a pattern of up to four literal parts in s and returns its
// recipe without integers. The parts interleave with the integers With
// adds: s.Name("F", ".g").With(3, 1) names "F3.g1", s.Name("C",
// ".pre").With(3) names "C3.pre", and s.Name("join") names "join".
// Builders intern each pattern once and name every task from it, so the
// per-task cost is a copy of the recipe.
func (s *Sim) Name(parts ...string) Name {
	var key [maxNameInts + 1]string
	if len(parts) > len(key) {
		panic(fmt.Sprintf("sim: name pattern has %d parts, at most %d", len(parts), len(key)))
	}
	copy(key[:], parts)
	id, ok := s.labelIDs[key]
	if !ok {
		s.labels = append(s.labels, key)
		id = int32(len(s.labels))
		if s.labelIDs == nil {
			s.labelIDs = make(map[[maxNameInts + 1]string]int32)
		}
		s.labelIDs[key] = id
	}
	return Name{label: id}
}

// With returns the recipe with its integers set to ints, at most three,
// each within int32.
func (n Name) With(ints ...int) Name {
	if len(ints) > maxNameInts {
		panic(fmt.Sprintf("sim: task name has %d integers, at most %d", len(ints), maxNameInts))
	}
	n.n = uint8(len(ints))
	for i, v := range ints {
		if int(int32(v)) != v {
			panic(fmt.Sprintf("sim: task name integer %d overflows int32", v))
		}
		n.ints[i] = int32(v)
	}
	return n
}

// TaskName formats t's name from its recipe.
func (s *Sim) TaskName(t *Task) string { return string(s.appendName(nil, t.name)) }

// appendName appends the label n describes to b.
func (s *Sim) appendName(b []byte, n Name) []byte {
	var parts [maxNameInts + 1]string
	if n.label > 0 {
		parts = s.labels[n.label-1]
	}
	for i, p := range parts {
		b = append(b, p...)
		if i < int(n.n) {
			b = strconv.AppendInt(b, int64(n.ints[i]), 10)
		}
	}
	return b
}
