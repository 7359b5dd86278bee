package harness

import (
	"context"
	"fmt"

	"adcc/internal/bench"
	"adcc/internal/crash"
	"adcc/internal/engine"
)

// timeRun prepares w on m without a crash emulator and returns the
// simulated duration of one fresh run: the measurement behind every
// runtime table.
func timeRun(m *crash.Machine, w engine.Workload) (int64, error) {
	if err := w.Prepare(m, nil); err != nil {
		return 0, err
	}
	start := m.Clock.Now()
	w.Run(w.Start())
	return m.Clock.Since(start), nil
}

// runtimeTable declares the comparison of Figures 4 and 13 and the
// stencil and kvlog extensions: every scheme's runtime, normalized to
// native execution on the scheme's own memory system.
type runtimeTable struct {
	name, title string
	cases       []engine.Scheme
	// machine builds the experiment's platform for a memory system.
	machine func(crash.SystemKind) *crash.Machine
	// workload returns a fresh, unprepared run under a scheme.
	workload func(engine.Scheme) engine.Workload
	// headers and extra add columns, computed from a case's scheme and
	// its workload after the run.
	headers []string
	extra   func(sc engine.Scheme, w engine.Workload) []any
}

// timedCase is one measured row of a runtime table.
type timedCase struct {
	ns    int64
	extra []any
}

// measure times sc's workload on a machine of the given system.
func (rt runtimeTable) measure(sc engine.Scheme, sys crash.SystemKind) (timedCase, error) {
	w := rt.workload(sc)
	ns, err := timeRun(rt.machine(sys), w)
	if err != nil {
		return timedCase{}, fmt.Errorf("%s: %s: %w", rt.name, sc.Name(), err)
	}
	tc := timedCase{ns: ns}
	if rt.extra != nil {
		tc.extra = rt.extra(sc, w)
	}
	return tc, nil
}

// nativeBase times native execution on NVM-only and on NVM/DRAM, the
// normalization denominators, as the "<exp>/base" cases.
func (rt runtimeTable) nativeBase(ctx context.Context, o Options) (map[crash.SystemKind]timedCase, error) {
	kinds := []crash.SystemKind{crash.NVMOnly, crash.Hetero}
	native := engine.MustLookup(engine.SchemeNative)
	label := func(i int) string { return "native@" + kinds[i].String() }
	runs, err := runCases(ctx, o, rt.name+"/base", label, len(kinds), func(i int) (timedCase, error) {
		return rt.measure(native, kinds[i])
	})
	if err != nil {
		return nil, err
	}
	return map[crash.SystemKind]timedCase{kinds[0]: runs[0], kinds[1]: runs[1]}, nil
}

// run measures every case and renders the table; the native case
// reuses its NVM-only baseline run.
func (rt runtimeTable) run(ctx context.Context, o Options) (*Table, error) {
	base, err := rt.nativeBase(ctx, o)
	if err != nil {
		return nil, err
	}
	runs, err := runCases(ctx, o, rt.name, schemeLabel(rt.cases), len(rt.cases), func(i int) (timedCase, error) {
		sc := rt.cases[i]
		o.logf("%s: case %s", rt.name, sc.Name())
		if sc.Name() == caseNative {
			return base[crash.NVMOnly], nil
		}
		return rt.measure(sc, sc.System())
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Name:    rt.name,
		Title:   rt.title,
		Headers: append([]string{"Case", "System", "Time(ms)", "Normalized"}, rt.headers...),
	}
	for i, sc := range rt.cases {
		r, sys := runs[i], sc.System()
		o.Collector.Record(bench.Result{Name: rt.name + "/" + sc.Name(), SimNS: r.ns})
		t.AddRow(append([]any{sc.Name(), sys.String(),
			fmt.Sprintf("%.2f", float64(r.ns)/1e6), normalize(r.ns, base[sys].ns)}, r.extra...)...)
	}
	return t, nil
}
