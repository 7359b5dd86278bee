package harness

import (
	"context"
	"fmt"

	"adcc/internal/bench"
	"adcc/internal/core"
	"adcc/internal/crash"
	"adcc/internal/engine"
	"adcc/internal/stencil"
)

// stencilLLCBytes is the LLC used by the stencil experiment: 1 MB, the
// campaign size, so the plane history straddles the cache at scale 1.0
// (old planes evicted and persistent, recent planes resident and lost).
const stencilLLCBytes = 1 << 20

// stencilOpts is the stencil configuration at the experiment scale.
func stencilOpts(o Options) stencil.Options {
	return stencil.Options{N: o.scaleInt(160, 48), MaxIter: 12, Seed: 21}
}

// RunStencil drives the extension workload family: Jacobi heat
// relaxation under every mechanism (runtime normalized to native on the
// same memory system, the Figure 4/8/13 presentation), plus one
// end-of-run crash test proving the algorithm-directed recovery
// re-relaxes to a verified result. The statistical validation of the
// family — every crash point, every scheme — lives in the campaign
// experiment, whose grid includes the stencil cells.
func RunStencil(ctx context.Context, o Options) (*Table, error) {
	opts := stencilOpts(o)
	o.logf("stencil: n=%d", opts.N)
	t, err := runtimeTable{
		name:    "stencil",
		title:   "Jacobi heat stencil runtime under mechanisms (normalized to native)",
		cases:   extendedCases(),
		machine: func(sys crash.SystemKind) *crash.Machine { return newMachine(sys, stencilLLCBytes, 16) },
		workload: func(sc engine.Scheme) engine.Workload {
			return stencil.NewWorkload(opts, nil, sc)
		},
	}.run(ctx, o)
	if err != nil {
		return nil, err
	}

	// Crash test: inject at the end of the last sweep and recover under
	// the full algorithm-directed protocol.
	m := newMachine(crash.NVMOnly, stencilLLCBytes, 16)
	em := crash.NewEmulator(m)
	h := stencil.NewHeat(m, em, opts)
	em.CrashAtTrigger(stencil.TriggerIterEnd, opts.MaxIter)
	if !em.Run(func() { h.Run(1) }) {
		return nil, fmt.Errorf("stencil: crash test did not crash")
	}
	avg := core.AvgIterNS(h.IterNS)
	rec := h.Recover()
	resumeStart := m.Clock.Now()
	h.Run(rec.RestartIter)
	resume := m.Clock.Since(resumeStart)
	if err := stencil.VerifyGrid(h.Result(), stencil.Want(opts)); err != nil {
		return nil, fmt.Errorf("stencil: algorithm-directed recovery failed verification: %w", err)
	}
	o.Collector.Record(bench.Result{
		Name:       "stencil/recovery",
		SimNS:      rec.DetectNS + resume,
		RecoveryNS: rec.DetectNS,
	})
	t.AddNote("crash at end of sweep %d: %d sweeps lost, detect %.3f iter, resume %.3f iter, result verified",
		rec.CrashIter, rec.IterationsLost, normalize(rec.DetectNS, avg), normalize(resume, avg))
	t.AddNote("algo flushes 2 lines/sweep (index + residual); recovery re-relaxes from the last plane pair satisfying u(j)=Jacobi(u(j-1))")
	return t, nil
}
