package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// TestTaskHoldsNoPointers walks Task's fields, through nested structs and
// arrays, and fails on any kind of field that holds a Go pointer: the
// task arena must stay memory the garbage collector never scans.
func TestTaskHoldsNoPointers(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.String,
			reflect.Map, reflect.Interface, reflect.Func, reflect.Chan:
			t.Errorf("%s is a %s, which holds a pointer", path, typ.Kind())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		}
	}
	walk("Task", reflect.TypeOf(Task{}))
}

// TestNameMatchesSprintf holds TaskName to the fmt.Sprintf formats the
// schedulers name their tasks with, over patterns interned once and
// integers of every sign and width.
func TestNameMatchesSprintf(t *testing.T) {
	s := New()
	r := rand.New(rand.NewSource(3))
	ints := []int{0, 1, 9, 10, 99, 100, 12345, -1, -42}
	check := func(n Name, want string) {
		t.Helper()
		if got := s.TaskName(s.After(n)); got != want {
			t.Fatalf("name %q, want %q", got, want)
		}
	}
	for i := 0; i < 2000; i++ {
		j, k, l := ints[r.Intn(len(ints))], r.Intn(1<<20)-1<<10, r.Intn(64)
		check(s.Name("allocPreF", ".rest").With(j), fmt.Sprintf("allocPreF%d.rest", j))
		check(s.Name("gf").With(k), fmt.Sprintf("gf%d", k))
		check(s.Name("F", ".g").With(j, k), fmt.Sprintf("F%d.g%d", j, k))
		check(s.Name("A", ".").With(k, l), fmt.Sprintf("A%d.%d", k, l))
		check(s.Name("RS", ".g", "-").With(l, j, k), fmt.Sprintf("RS%d.g%d-%d", l, j, k))
	}
	check(s.Name("join"), "join")
	check(Name{}, "")
	if len(s.labels) != 6 {
		t.Fatalf("%d patterns interned, want 6", len(s.labels))
	}
}

// containerQueue adapts a task slice to container/heap under an explicit
// ordering: the oracle the typed heaps are held to.
type containerQueue struct {
	ts   []*Task
	less func(a, b *Task) bool
}

func (q *containerQueue) Len() int           { return len(q.ts) }
func (q *containerQueue) Less(i, j int) bool { return q.less(q.ts[i], q.ts[j]) }
func (q *containerQueue) Swap(i, j int)      { q.ts[i], q.ts[j] = q.ts[j], q.ts[i] }
func (q *containerQueue) Push(x any)         { q.ts = append(q.ts, x.(*Task)) }
func (q *containerQueue) Pop() any {
	t := q.ts[len(q.ts)-1]
	q.ts = q.ts[:len(q.ts)-1]
	return t
}

// TestTaskHeapsMatchContainerHeap feeds the engine queue and the compute
// heap random, tie-heavy priorities, ready times and end times, pushes
// and pops interleaved, and requires each to pop the same sequence as
// container/heap under the same order.
func TestTaskHeapsMatchContainerHeap(t *testing.T) {
	engineOrder := func(a, b *Task) bool {
		if a.priority != b.priority {
			return a.priority > b.priority
		}
		if a.readyAt != b.readyAt {
			return a.readyAt < b.readyAt
		}
		return a.id < b.id
	}
	computeOrder := func(a, b *Task) bool {
		if a.endAt != b.endAt {
			return a.endAt < b.endAt
		}
		return a.id < b.id
	}
	for seed := int64(0); seed < 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		tasks := make([]Task, 400)
		ids := r.Perm(len(tasks))
		for i := range tasks {
			tasks[i].id = int32(ids[i])
			tasks[i].priority = int32(r.Intn(3))
			tasks[i].readyAt = Time(r.Intn(4))
			tasks[i].endAt = Time(r.Intn(4)) * 0.5
		}
		var eq engineQueue
		var ch computeHeap
		eo := &containerQueue{less: engineOrder}
		co := &containerQueue{less: computeOrder}
		next := 0
		for next < len(tasks) || eo.Len() > 0 {
			if next < len(tasks) && (eo.Len() == 0 || r.Intn(3) > 0) {
				tk := &tasks[next]
				next++
				eq.push(tk)
				ch.push(tk)
				heap.Push(eo, tk)
				heap.Push(co, tk)
				continue
			}
			if got, want := eq.pop(), heap.Pop(eo).(*Task); got != want {
				t.Fatalf("seed %d: engine queue popped task %d, container/heap task %d", seed, got.id, want.id)
			}
			if got, want := ch.pop(), heap.Pop(co).(*Task); got != want {
				t.Fatalf("seed %d: compute heap popped task %d, container/heap task %d", seed, got.id, want.id)
			}
		}
		if eq.pop() != nil || len(ch) != 0 {
			t.Fatalf("seed %d: typed heaps hold tasks the oracle does not", seed)
		}
	}
}
