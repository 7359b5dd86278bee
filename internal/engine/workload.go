package engine

import (
	"adcc/internal/crash"
)

// Workload is one crash-consistence study: a computation that can run
// from an iteration boundary, recover after an injected crash, and
// verify its final result. CG, ABFT-MM, and Monte-Carlo implement it in
// internal/core, the stencil and KV-store extension families in
// internal/stencil and internal/kvlog.
//
// The lifecycle is:
//
//	w.Prepare(m, em)        // allocate state on the machine
//	em.Run(func(){ w.Run(w.Start()) })  // fresh run, possibly crashing
//	from, err := w.Recover()            // after a crash+restart
//	w.Run(from)                         // complete the computation
//	err = w.Verify()                    // check the result
//	stats := w.Metrics()                // workload-specific measurements
type Workload interface {
	// Name identifies the workload's family ("cg", "mm", "mc",
	// "stencil", "kvlog", or a custom family's name).
	Name() string
	// Prepare allocates the workload's state on the machine. em may be
	// nil when no crash will be injected. Prepare must be called
	// exactly once, before Run.
	Prepare(m *crash.Machine, em *crash.Emulator) error
	// Start returns the token a fresh (non-recovery) Run starts from.
	Start() int64
	// Run executes the computation from a resume token: Start() for a
	// fresh run, or the value returned by Recover after a crash.
	Run(from int64)
	// Recover inspects the post-crash persistent image (the machine
	// must have restarted, live = image) and returns the token to
	// resume Run from.
	Recover() (int64, error)
	// Verify checks the final result against the workload's native
	// reference, returning an error on corruption.
	Verify() error
	// Metrics reports workload-specific measurements of the last run
	// (residuals, per-iteration times, recovery statistics).
	Metrics() map[string]float64
}

// Family is a workload family: the one descriptor the campaign grid and
// the public Runner both sweep. Each built-in family is declared once,
// next to its implementation, and registered on a Registry.
type Family struct {
	// Name identifies the family in registries, cell keys, and reports.
	Name string
	// Schemes names the schemes a sweep covers by default, in order.
	// Nil means the paper's seven-case comparison; the campaign, whose
	// System axis already sweeps both platforms, drops the redundant
	// algo-NVM/DRAM label from it.
	Schemes []string
	// New sizes the family at a problem scale (1.0 = paper shape) and
	// returns the per-instance factory. New is called once per sweep:
	// expensive pure inputs (generated matrices, verification oracles)
	// are computed there and shared read-only, so the factory stays
	// cheap and must be safe for concurrent use. Each factory call
	// returns a fresh, unprepared workload for one run under sc.
	New func(scale float64) func(sc Scheme) (Workload, error)
}

// ScaleInt scales a problem size v by scale, never going below floor:
// the sizing rule every built-in family applies to its paper shape.
func ScaleInt(v int, scale float64, floor int) int {
	return max(int(float64(v)*scale), floor)
}
