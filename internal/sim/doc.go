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
// Work is described as a DAG of Tasks (Compute, Transfer, Alloc, Free and
// virtual join nodes). A Transfer becomes a flow across a path of
// Resources once its dependencies complete and its copy engine is free.
// Run executes the DAG to completion and returns the makespan.
//
// All times are float64 seconds and all sizes float64 bytes. The simulator
// is fully deterministic: ties are broken by task creation order.
//
// One serial event loop (loop.go) executes the whole DAG; its state lives
// on Sim. The loop is incremental: flows are grouped into connected
// components by a union-find over the resources their paths touch, and an
// event re-runs the fair-sharing computation only for the components it
// perturbed (component.go). Flow progress is settled lazily when a flow's
// rate changes (flow.go), and the next event is picked from an indexed
// min-heap of predicted completion times (flowheap.go), so per-event cost
// scales with the perturbation, not with the number of active flows. The
// pre-incremental global recompute is retained as a test-only oracle that
// the differential tests hold bitwise-equal to the incremental scheduler.
package sim
