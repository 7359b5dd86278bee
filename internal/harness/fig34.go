package harness

import (
	"context"
	"fmt"

	"adcc/internal/bench"
	"adcc/internal/core"
	"adcc/internal/crash"
	"adcc/internal/engine"
	"adcc/internal/sparse"
)

// cgLLCBytes is the LLC used for the CG experiments: half the paper's
// 8 MB. The classes are used at their NPB sizes; 4 MB keeps the paper's
// Figure 3 relationship (S and W's history working sets fit and lose all
// iterations, B and C stream and lose one).
const cgLLCBytes = 4 << 20

// RunFig3 reproduces Figure 3: recomputation cost of crash-consistent CG
// across input classes, broken into "detecting where to restart" and
// "resuming computation", normalized by the average iteration time. The
// crash fires at the end of iteration 15 on the heterogeneous NVM/DRAM
// system, as in the paper.
func RunFig3(ctx context.Context, o Options) (*Table, error) {
	t := &Table{
		Name:  "fig3",
		Title: "CG recomputation cost (normalized to one iteration)",
		Headers: []string{
			"Class", "n", "ItersLost", "Detect/iter", "Resume/iter", "Total/iter",
		},
	}
	crashIter := 15
	classes := sparse.Classes()
	label := func(i int) string { return "class-" + classes[i].Name }
	rows, err := runCases(ctx, o, "fig3", label, len(classes), func(ci int) ([]any, error) {
		cl := classes[ci]
		n := o.scaleInt(cl.N, 200)
		o.logf("fig3: class %s n=%d", cl.Name, n)
		a := sparse.GenSPD(n, cl.NnzRow, 1000+int64(len(cl.Name)))

		m := newMachine(crash.Hetero, cgLLCBytes, 16)
		em := crash.NewEmulator(m)
		cg := core.NewCG(m, em, a, core.CGOptions{MaxIter: crashIter})
		em.CrashAtTrigger(core.TriggerCGIterEnd, crashIter)
		if !em.Run(func() { cg.Run(1) }) {
			return nil, fmt.Errorf("fig3: class %s did not crash", cl.Name)
		}
		avg := core.AvgIterNS(cg.IterNS)
		rec := cg.Recover()
		resumeStart := m.Clock.Now()
		cg.Run(rec.RestartIter)
		resume := m.Clock.Since(resumeStart)

		o.Collector.Record(bench.Result{
			Name:       "fig3/class-" + cl.Name,
			SimNS:      rec.DetectNS + resume,
			RecoveryNS: rec.DetectNS,
		})
		return []any{cl.Name, n, rec.IterationsLost,
			normalize(rec.DetectNS, avg), normalize(resume, avg),
			normalize(rec.DetectNS+resume, avg)}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		t.AddRow(r...)
	}
	t.AddNote("crash at end of iteration %d on the NVM/DRAM system (paper setup)", crashIter)
	t.AddNote("paper: classes S,W lose all 15 iterations; classes B,C lose 1")
	return t, nil
}

// RunFig4 reproduces Figure 4: CG runtime under the seven mechanisms,
// normalized by native execution on the same memory system. Class C is
// the input; checkpoint and PMEM act once per iteration so every
// mechanism has the same one-iteration recomputation bound.
func RunFig4(ctx context.Context, o Options) (*Table, error) {
	cl, _ := sparse.ClassByName("C")
	n := o.scaleInt(cl.N, 2000)
	o.logf("fig4: class C n=%d", n)
	a := sparse.GenSPD(n, cl.NnzRow, 77)
	opts := core.CGOptions{MaxIter: 15}

	paperRef := map[string]string{
		caseNative:     "1.000",
		caseCkptHDD:    "1.604",
		caseCkptNVM:    "1.042",
		caseCkptHetero: "1.436",
		casePMEM:       "4.290",
		caseAlgoNVM:    "<1.03",
		caseAlgoHetero: "<1.03",
	}
	t, err := runtimeTable{
		name:    "fig4",
		title:   "CG runtime, seven mechanisms (normalized to native)",
		cases:   sevenCases(),
		machine: func(sys crash.SystemKind) *crash.Machine { return newMachine(sys, cgLLCBytes, 16) },
		workload: func(sc engine.Scheme) engine.Workload {
			return core.NewCGWorkload(a, opts, sc)
		},
		headers: []string{"Paper"},
		extra:   func(sc engine.Scheme, _ engine.Workload) []any { return []any{paperRef[sc.Name()]} },
	}.run(ctx, o)
	if err != nil {
		return nil, err
	}
	t.AddNote("checkpoint/PMEM act once per CG iteration (same recomputation bound as algo)")
	return t, nil
}

// RunCGCacheAblation sweeps the LLC size for a fixed class and reports
// how the recomputation cost of the algorithm-directed approach depends
// on cache capacity — the caching-effect observation of the paper's
// second contribution bullet.
func RunCGCacheAblation(ctx context.Context, o Options) (*Table, error) {
	t := &Table{
		Name:    "cg-cache",
		Title:   "CG iterations lost after a crash vs LLC size (class A)",
		Headers: []string{"LLC", "ItersLost", "Detect/iter", "Total/iter"},
	}
	cl, _ := sparse.ClassByName("A")
	n := o.scaleInt(cl.N, 1000)
	a := sparse.GenSPD(n, cl.NnzRow, 88)
	crashIter := 15
	llcs := []int{256 << 10, 1 << 20, 4 << 20, 16 << 20, 64 << 20}
	label := func(i int) string { return fmt.Sprintf("llc-%dKB", llcs[i]>>10) }
	rows, err := runCases(ctx, o, "cg-cache", label, len(llcs), func(i int) ([]any, error) {
		llc := llcs[i]
		m := newMachine(crash.NVMOnly, llc, 16)
		em := crash.NewEmulator(m)
		cg := core.NewCG(m, em, a, core.CGOptions{MaxIter: crashIter})
		em.CrashAtTrigger(core.TriggerCGIterEnd, crashIter)
		if !em.Run(func() { cg.Run(1) }) {
			return nil, fmt.Errorf("cg-cache: no crash at llc=%d", llc)
		}
		avg := core.AvgIterNS(cg.IterNS)
		rec := cg.Recover()
		resumeStart := m.Clock.Now()
		cg.Run(rec.RestartIter)
		resume := m.Clock.Since(resumeStart)
		return []any{fmt.Sprintf("%dKB", llc>>10), rec.IterationsLost,
			normalize(rec.DetectNS, avg), normalize(rec.DetectNS+resume, avg)}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		t.AddRow(r...)
	}
	t.AddNote("larger caches retain more dirty history rows, increasing loss — the inverse of Figure 3's input-size effect")
	return t, nil
}
