// Package sim implements a deterministic discrete-event simulator used as
// the execution substrate for all training systems in this repository.
//
// The simulator models three kinds of hardware primitives:
//
//   - Resource: a bandwidth-shared link (e.g. a PCIe link or a CPU root
//     complex). Concurrent flows crossing a Resource share its capacity
//     under max-min fairness, with strict priority classes: higher-priority
//     flows are allocated bandwidth first, and equal-priority flows split
//     the residue fairly. This reproduces the contention behaviour of
//     commodity GPU servers where several GPUs hang off one root complex.
//
//   - Engine: an exclusive serial executor (a GPU compute engine, or a DMA
//     copy engine). At most one task occupies an Engine at a time; queued
//     tasks are started in priority order, then FIFO.
//
//   - MemPool: a finite capacity with blocking allocation (GPU memory).
//     Alloc tasks complete only once capacity is available; waiters are
//     served strictly FIFO so schedules remain deterministic.
//
// Work is described as a DAG of Tasks, built with one set of
// constructors on Sim (Compute, Transfer, Alloc, Free and the virtual join
// After). A Transfer crosses a path of Resources registered once with
// NewPath and named by its PathID; it becomes a flow across that path
// once its dependencies complete and its copy engine is free. Run executes the DAG
// to completion and returns the makespan; a Sim runs once.
// Results are read from the finished DAG after Run: Finished lists the
// completed tasks in (end time, task id) order, each task carries its
// start and end times, and each resource the bytes it carried.
//
// Tasks hold no Go pointer, so the task arena is memory the garbage
// collector never scans: a task names its engine, pool and path by index
// or id into the Sim's tables, its successors by id, and carries its Tag by
// value (SetTag). Its name is a recipe over a pattern the Sim interns
// (Name, With), formatted only when an error or a caller asks (TaskName).
//
// All times are float64 seconds and all sizes float64 bytes. The simulator
// is fully deterministic: ties are broken by task creation order.
//
// One serial event loop (loop.go) executes the whole DAG; its state lives
// on Sim. An event that admits or finishes a flow or changes a capacity
// re-runs the fair-sharing computation once over every active flow
// (flow.go): on a commodity server every path but a P2P NVLink pair's
// crosses the DRAM bus, so the active flows share one resource and no
// event could leave part of them out. Flow progress is settled lazily
// when a flow's rate changes, and the next event is picked from an
// indexed min-heap of predicted completion times (flowheap.go) and a
// typed heap of compute completions (taskheap.go). A clock grown so
// large that one ulp outlasts a transfer cannot finish it; Run then
// stops with a *StallError instead of picking the same instant forever.
package sim
