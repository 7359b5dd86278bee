package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"time"

	"adcc/internal/cache"
	"adcc/internal/campaign"
	"adcc/internal/core"
	"adcc/internal/crash"
	"adcc/internal/dense"
	"adcc/internal/engine"
	"adcc/internal/kvlog"
	"adcc/internal/mc"
	"adcc/internal/mem"
	"adcc/internal/resultstore"
	"adcc/internal/sparse"
	"adcc/internal/stencil"
	"adcc/pkg/adcc"
)

// The probe re-executes a campaign spec cell by cell through the same
// exported calls the two engines make (machine build, Prepare, Profile,
// Record with StateVersion/CrashSnapshotFault/Hash/Equal, RestoreCrash,
// SetFault/Arm/Run, Recover, resume under Run, Verify) and records a
// span around each call. Its rows are written through the result-store
// writer and must be byte-identical to the store campaign.Run writes for
// the same spec, so the per-layer numbers cannot drift from what the
// engines do. The grid and sizing below mirror internal/campaign; a
// mismatch fails that byte comparison.

// probeWorkloads is the campaign's sweep order of workload families.
var probeWorkloads = []string{"cg", "mm", "mc", "stencil", "kvlog"}

// probeSchemes lists the schemes the campaign sweeps for a workload.
func probeSchemes(workload string) []string {
	s := []string{
		engine.SchemeNative, engine.SchemeCkptHDD, engine.SchemeCkptNVM,
		engine.SchemeCkptHetero, engine.SchemePMEM,
	}
	switch workload {
	case "mc":
		return append(s, engine.SchemeAlgoNVM, engine.SchemeAlgoHetero,
			engine.SchemeAlgoNaive, engine.SchemeAlgoEvery)
	case "stencil", "kvlog":
		return append(s, engine.SchemeAlgoNVM, engine.SchemeAlgoNaive, engine.SchemeAlgoEvery)
	default:
		return append(s, engine.SchemeAlgoNVM)
	}
}

// probeCell is one workload x scheme x system x fault cell.
type probeCell struct {
	workload  string
	scheme    engine.Scheme
	system    crash.SystemKind
	fault     crash.FaultModel
	faultName string // "" for fail-stop
}

func (c probeCell) key() string {
	s := fmt.Sprintf("%s/%s@%s", c.workload, c.scheme.Name(), c.system)
	if c.faultName != "" {
		s += "+" + c.faultName
	}
	return s
}

// seed is the cell's crash-point seed; the fault model is not mixed in.
func (c probeCell) seed(base int64) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%d|%d", c.workload, c.scheme.Name(), c.system, base)
	return int64(h.Sum64() >> 1)
}

// faultFor is the cell's fault model with its lottery seed.
func (c probeCell) faultFor(base int64) crash.FaultModel {
	f := c.fault
	if f.Kind == crash.FailStop {
		return f
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|fault|%d", c.key(), base)
	f.Seed = int64(h.Sum64() >> 1)
	return f
}

func (c probeCell) newMachine() *crash.Machine {
	return crash.NewMachine(crash.MachineConfig{
		System: c.system,
		Cache: cache.Config{
			SizeBytes:         1 << 20,
			LineBytes:         64,
			Assoc:             16,
			HitNS:             4,
			FlushChargesClean: true,
			PrefetchStreams:   16,
			FlushFree:         c.fault.Kind == crash.EADR,
		},
	})
}

// probeGrid enumerates the spec's cells in campaign grid order. Only the
// built-in scheme grid is supported.
func probeGrid(spec adcc.CampaignSpec, reg *engine.Registry) ([]probeCell, error) {
	spec = spec.Canonical()
	if len(spec.Schemes) > 0 {
		return nil, fmt.Errorf("probe: scheme filters are not supported")
	}
	type axis struct {
		name  string
		model crash.FaultModel
	}
	faults := []axis{{}}
	if len(spec.FaultModels) > 0 {
		faults = nil
		seen := map[crash.FaultKind]bool{}
		for _, name := range spec.FaultModels {
			fm, err := crash.ParseFaultModel(name)
			if err != nil {
				return nil, err
			}
			if seen[fm.Kind] {
				continue
			}
			seen[fm.Kind] = true
			a := axis{model: fm}
			if fm.Kind != crash.FailStop {
				a.name = fm.Kind.String()
			}
			faults = append(faults, a)
		}
	}
	var out []probeCell
	for _, w := range probeWorkloads {
		if len(spec.Workloads) > 0 && !contains(spec.Workloads, w) {
			continue
		}
		for _, name := range probeSchemes(w) {
			sc, ok := reg.Lookup(name)
			if !ok {
				return nil, fmt.Errorf("probe: unknown scheme %q", name)
			}
			for _, sys := range []crash.SystemKind{crash.NVMOnly, crash.Hetero} {
				for _, f := range faults {
					out = append(out, probeCell{workload: w, scheme: sc, system: sys, fault: f.model, faultName: f.name})
				}
			}
		}
	}
	return out, nil
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

// probeAssets are a workload family's shared read-only inputs.
type probeAssets struct {
	cgA      *sparse.CSR
	mmWant   *dense.Matrix
	heatWant []float64
	kvWant   map[int64]int64
}

// sizes derives every scaled size from the campaign scale.
type sizes struct{ scale float64 }

func (s sizes) n(v, floor int) int { return max(int(float64(v)*s.scale), floor) }

func (s sizes) mm() core.MMOptions {
	return core.MMOptions{N: 16 * s.n(8, 3), K: 16, Seed: 12}
}

func (s sizes) heat() stencil.Options {
	return stencil.Options{N: s.n(96, 32), MaxIter: 12, Seed: 21}
}

func (s sizes) kv() kvlog.Options {
	return kvlog.Options{Requests: s.n(600, 120), KeySpace: 128, ScanLen: 8, CkptEvery: 16, Seed: 33}
}

func (s sizes) assets(workload string) *probeAssets {
	as := &probeAssets{}
	switch workload {
	case "cg":
		as.cgA = sparse.GenSPD(s.n(1200, 300), 9, 11)
	case "mm":
		as.mmWant = core.MMWant(s.mm())
	case "stencil":
		as.heatWant = stencil.Want(s.heat())
	case "kvlog":
		as.kvWant = kvlog.Oracle(s.kv())
	}
	return as
}

func (s sizes) workload(c probeCell, as *probeAssets) engine.Workload {
	algo := c.scheme.Kind() == engine.KindAlgo
	switch c.workload {
	case "cg":
		opts := core.CGOptions{MaxIter: 15, Seed: 11}
		if algo {
			return &core.CGWorkload{A: as.cgA, Opts: opts}
		}
		return &core.BaselineCGWorkload{A: as.cgA, Opts: opts, Scheme: c.scheme}
	case "mm":
		if algo {
			return &core.MMWorkload{Opts: s.mm(), Want: as.mmWant}
		}
		return &core.BaselineMMWorkload{Opts: s.mm(), Want: as.mmWant, Scheme: c.scheme}
	case "mc":
		return &core.MCWorkload{
			Cfg:    mc.Config{Nuclides: 16, PointsPerNuclide: 128, Lookups: s.n(20_000, 2500), Seed: 42},
			Scheme: c.scheme,
		}
	case "stencil":
		if algo {
			return &stencil.HeatWorkload{Opts: s.heat(), Want: as.heatWant, Scheme: c.scheme}
		}
		return &stencil.BaselineWorkload{Opts: s.heat(), Want: as.heatWant, Scheme: c.scheme}
	default: // kvlog
		if algo {
			return &kvlog.StoreWorkload{Opts: s.kv(), Want: as.kvWant, Scheme: c.scheme}
		}
		return &kvlog.BaselineWorkload{Opts: s.kv(), Want: as.kvWant, Scheme: c.scheme}
	}
}

// probePlan is a profiled cell with its crash points.
type probePlan struct {
	cell    probeCell
	assets  *probeAssets
	profile crash.RunProfile
	points  []crash.CrashPoint
	trace   int // trace id: 1 + the cell's grid index
	span    int // the cell's execution span
}

func (pl *probePlan) info() campaign.CellInfo {
	return campaign.CellInfo{
		Workload:   pl.cell.workload,
		Scheme:     pl.cell.scheme.Name(),
		System:     pl.cell.system.String(),
		FaultModel: pl.cell.faultName,
		ProfileOps: pl.profile.Ops,
		GrainOps:   pl.profile.MainTriggerOps(),
		Injections: len(pl.points),
	}
}

// probe runs one campaign spec with spans around every layer call.
type probe struct {
	tr       *Tracer
	spec     adcc.CampaignSpec // canonical
	sz       sizes
	perCell  int
	parallel int
}

func newProbe(tr *Tracer, spec adcc.CampaignSpec, parallel int) *probe {
	spec = spec.Canonical()
	sz := sizes{scale: spec.Scale}
	return &probe{tr: tr, spec: spec, sz: sz, perCell: pointsPerCell(spec), parallel: parallel}
}

// probeResult is what one probe pass produced.
type probeResult struct {
	Store []byte // the rows, encoded by the result-store writer
	Rows  int
	Cells int
}

// run executes the whole spec and encodes the rows as a result store.
func (p *probe) run(ctx context.Context) (probeResult, error) {
	cells, err := probeGrid(p.spec, engine.NewBuiltinRegistry())
	if err != nil {
		return probeResult{}, err
	}
	assets := map[string]*probeAssets{}
	for _, c := range cells {
		if assets[c.workload] == nil {
			id := p.tr.Begin("assets", 0, 0)
			assets[c.workload] = p.sz.assets(c.workload)
			p.tr.Finish(id)
		}
	}
	plans, err := engine.RunCases(ctx, p.parallel, len(cells), func(i int) (*probePlan, error) {
		return p.profileCell(cells[i], assets[cells[i].workload], i+1)
	})
	if err != nil {
		return probeResult{}, err
	}
	var rows [][]campaign.InjectionRow
	if p.spec.Replay {
		rows, err = engine.RunCases(ctx, p.parallel, len(plans), func(i int) ([]campaign.InjectionRow, error) {
			return p.replayCell(plans[i]), nil
		})
	} else {
		rows, err = p.legacy(ctx, plans)
	}
	if err != nil {
		return probeResult{}, err
	}

	res := probeResult{Cells: len(plans)}
	var buf bytes.Buffer
	w := resultstore.NewWriter(&buf, p.spec.Scale, p.spec.Seed)
	for i, pl := range plans {
		w.BeginCell(pl.info())
		for _, r := range rows[i] {
			w.Row(r)
		}
		res.Rows += len(rows[i])
	}
	if err := w.Close(); err != nil {
		return probeResult{}, fmt.Errorf("probe: encode rows: %w", err)
	}
	res.Store = buf.Bytes()
	return res, nil
}

// legacy runs every (cell, point) injection on a fresh machine, fanned
// out over the flattened job list like the legacy engine. A cell's span
// is the hull of its injections, which overlap at parallel > 1.
func (p *probe) legacy(ctx context.Context, plans []*probePlan) ([][]campaign.InjectionRow, error) {
	type job struct{ plan, point int }
	var jobs []job
	for pi, pl := range plans {
		pl.span = p.tr.Record("cell", pl.trace, 0, 0, 0)
		for i := range pl.points {
			jobs = append(jobs, job{pi, i})
		}
	}
	flat, err := engine.RunCases(ctx, p.parallel, len(jobs), func(i int) (campaign.InjectionRow, error) {
		pl := plans[jobs[i].plan]
		return p.injection(pl, pl.points[jobs[i].point]), nil
	})
	if err != nil {
		return nil, err
	}
	for _, pl := range plans {
		p.tr.Enclose(pl.span)
	}
	out := make([][]campaign.InjectionRow, len(plans))
	for i, j := range jobs {
		out[j.plan] = append(out[j.plan], flat[i])
	}
	return out, nil
}

// sim runs fn as a span of simulated work on m and adds the LLC counter
// deltas to the tracer, both in total and under the span's name.
func (p *probe) sim(name string, trace, parent int, m *crash.Machine, fn func()) {
	s0 := m.LLC.Stats()
	id := p.tr.Begin(name, trace, parent)
	fn()
	p.tr.Finish(id)
	p.addStats(name, m, s0)
}

func (p *probe) addStats(name string, m *crash.Machine, s0 cache.Stats) {
	s1 := m.LLC.Stats()
	acc := s1.Loads + s1.Stores - s0.Loads - s0.Stores
	p.tr.Add("cache.accesses", acc)
	p.tr.Add("cache.accesses."+name, acc)
	p.tr.Add("cache.line_misses", s1.LineMisses-s0.LineMisses)
	p.tr.Add("cache.writebacks", s1.Writebacks-s0.Writebacks)
	p.tr.Add("cache.flushes", s1.Flushes-s0.Flushes)
}

// timed runs fn as a span that drives no simulated accesses.
func (p *probe) timed(name string, trace, parent int, fn func()) {
	id := p.tr.Begin(name, trace, parent)
	fn()
	p.tr.Finish(id)
}

// build constructs a cell's machine, emulator and workload.
func (p *probe) build(pl probeCell, as *probeAssets, trace, parent int) (*crash.Machine, *crash.Emulator, engine.Workload) {
	var m *crash.Machine
	var em *crash.Emulator
	var w engine.Workload
	p.timed("machine_build", trace, parent, func() {
		m = pl.newMachine()
		em = crash.NewEmulator(m)
		w = p.sz.workload(pl, as)
	})
	return m, em, w
}

// profileCell is stage 1 of both engines: one uncrashed run to learn
// the cell's crash-point space, verified, then its seeded points.
func (p *probe) profileCell(c probeCell, as *probeAssets, trace int) (*probePlan, error) {
	root := p.tr.Begin("profile_stage", trace, 0)
	defer p.tr.Finish(root)
	m, em, w := p.build(c, as, trace, root)
	var err error
	p.sim("prepare", trace, root, m, func() { err = w.Prepare(m, em) })
	if err != nil {
		return nil, fmt.Errorf("probe: %s: %w", c.key(), err)
	}
	var prof crash.RunProfile
	p.sim("profile", trace, root, m, func() { prof = em.Profile(func() { w.Run(w.Start()) }) })
	if prof.Ops == 0 {
		return nil, fmt.Errorf("probe: %s: profile saw no memory operations", c.key())
	}
	p.sim("verify", trace, root, m, func() { err = w.Verify() })
	if err != nil {
		return nil, fmt.Errorf("probe: %s: crash-free run failed verification: %w", c.key(), err)
	}
	return &probePlan{cell: c, assets: as, profile: prof, points: prof.Points(p.perCell, c.seed(p.spec.Seed)), trace: trace}, nil
}

// classify turns the resumed op count into rework and the final
// clean/recomputed outcome, exactly as both engines do.
func classify(row *campaign.InjectionRow, pl *probePlan, resumeOps int64) {
	remaining := pl.profile.Ops - row.CrashOps
	if rework := resumeOps - remaining; rework > 0 {
		row.ReworkOps = rework
	}
}

func finalOutcome(row *campaign.InjectionRow, pl *probePlan) {
	if row.ReworkOps <= 2*pl.profile.MainTriggerOps() {
		row.Outcome = campaign.OutcomeClean
	} else {
		row.Outcome = campaign.OutcomeRecomputed
	}
}

// injection is the legacy engine's per-point path: build, prepare, run
// to the crash (the prefix, then the crash protocol with its fault
// overlay), recover, resume with op counting, verify.
func (p *probe) injection(pl *probePlan, pt crash.CrashPoint) campaign.InjectionRow {
	var row campaign.InjectionRow
	trace := pl.trace
	inj := p.tr.Begin("injection", trace, pl.span)
	defer p.tr.Finish(inj)
	m, em, w := p.build(pl.cell, pl.assets, trace, inj)
	var err error
	p.sim("prepare", trace, inj, m, func() { err = w.Prepare(m, em) })
	if err != nil {
		row.Outcome = campaign.OutcomeUnrecoverable
		return row
	}
	if err := em.SetFault(pl.cell.faultFor(p.spec.Seed)); err != nil {
		row.Outcome = campaign.OutcomeUnrecoverable
		return row
	}
	em.Arm(pt)
	var crashAt time.Duration
	em.OnCrash = func(*crash.Machine) { crashAt = p.tr.Now() }
	s0 := m.LLC.Stats()
	start := p.tr.Now()
	crashed := em.Run(func() { w.Run(w.Start()) })
	end := p.tr.Now()
	p.addStats("prefix", m, s0)
	if !crashed {
		p.tr.Record("prefix", trace, inj, start, end)
		row.Outcome = campaign.OutcomeNoCrash
		return row
	}
	p.tr.Record("prefix", trace, inj, start, crashAt)
	p.tr.Record("overlay", trace, inj, crashAt, end)
	row.CrashOps = em.CrashOps()
	p.tr.Add("crash.prefix_ops", row.CrashOps)
	flushes0 := m.LLC.Stats().Flushes

	recStart := m.Clock.Now()
	var from int64
	p.sim("recover", trace, inj, m, func() { from, err = safeRecover(w) })
	row.RecoverSimNS = m.Clock.Since(recStart)
	if err != nil {
		row.Outcome = campaign.OutcomeUnrecoverable
		return row
	}

	em.Disarm()
	resStart := m.Clock.Now()
	var crashedAgain bool
	p.sim("resume", trace, inj, m, func() { crashedAgain, err = safeResume(em, w, from) })
	row.ResumeSimNS = m.Clock.Since(resStart)
	row.FlushLines = m.LLC.Stats().Flushes - flushes0
	p.tr.Add("workload.resume_ops", em.OpCount())
	classify(&row, pl, em.OpCount())
	if err != nil || crashedAgain {
		row.Outcome = campaign.OutcomeUnrecoverable
		return row
	}
	p.sim("verify", trace, inj, m, func() { err = safeVerify(w) })
	if err != nil {
		row.Outcome = campaign.OutcomeCorrupt
		return row
	}
	finalOutcome(&row, pl)
	return row
}

// snapClass is one post-crash equivalence class of a cell's points.
type snapClass struct {
	state  *crash.CrashState
	points []int
}

// classResult is the point-independent outcome of one fork.
type classResult struct {
	prepErr, recoverErr, resumeErr, verifyFail bool
	flushes, recoverNS, resumeNS, resumeOps    int64
}

// replayCell is the replay engine's per-cell path: one recording run
// capturing and deduplicating a crash state per point, then one fork
// per equivalence class on a single reused machine.
func (p *probe) replayCell(pl *probePlan) []campaign.InjectionRow {
	trace := pl.trace
	pl.span = p.tr.Begin("cell", trace, 0)
	defer p.tr.Finish(pl.span)
	rows := make([]campaign.InjectionRow, len(pl.points))
	m, em, w := p.build(pl.cell, pl.assets, trace, pl.span)
	var err error
	p.sim("prepare", trace, pl.span, m, func() { err = w.Prepare(m, em) })
	if err != nil {
		for i := range rows {
			rows[i] = campaign.InjectionRow{Outcome: campaign.OutcomeUnrecoverable}
		}
		return rows
	}

	fm := pl.cell.faultFor(p.spec.Seed)
	var classes []*snapClass
	byHash := map[uint64][]int{}
	captured := make([]bool, len(pl.points))
	crashOps := make([]int64, len(pl.points))
	lastClass, lastVer := -1, uint64(0)
	var prev *crash.CrashState
	s0 := m.LLC.Stats()
	rec := p.tr.Begin("record", trace, pl.span)
	em.Record(func() { w.Run(w.Start()) }, pl.points, func(pi int) {
		captured[pi] = true
		crashOps[pi] = em.OpCount()
		if fm.Kind == crash.FailStop {
			if ver := m.StateVersion(); lastClass >= 0 && ver == lastVer {
				classes[lastClass].points = append(classes[lastClass].points, pi)
				p.tr.Add("crash.version_skips", 1)
				return
			} else {
				lastVer = ver
			}
		} else {
			// The overlay is computed again inside CrashSnapshotFault;
			// this side call (which does not perturb the machine) only
			// times it.
			p.timed("overlay", trace, rec, func() { _, _ = m.FaultOverlay(fm, em.OpCount()) })
		}
		var st *crash.CrashState
		p.timed("capture", trace, rec, func() { st, _ = m.CrashSnapshotFault(prev, fm, em.OpCount()) })
		p.tr.Add("crash.capture_calls", 1)
		prev = st
		dd := p.tr.Begin("dedup", trace, rec)
		defer p.tr.Finish(dd)
		for _, ci := range byHash[st.Hash()] {
			c := classes[ci]
			p.tr.Add("crash.equal_calls", 1)
			if c.state.Equal(st) {
				c.points = append(c.points, pi)
				lastClass = ci
				return
			}
		}
		classes = append(classes, &snapClass{state: st, points: []int{pi}})
		byHash[st.Hash()] = append(byHash[st.Hash()], len(classes)-1)
		lastClass = len(classes) - 1
	})
	p.tr.Finish(rec)
	p.addStats("record", m, s0)
	p.tr.Add("crash.classes", int64(len(classes)))

	fk := p.newForker(pl)
	for _, c := range classes {
		res := fk.run(c.state)
		for _, pi := range c.points {
			rows[pi] = expand(res, crashOps[pi], pl)
		}
		p.tr.Add("crash.class_points", int64(len(c.points)))
	}
	for pi, ok := range captured {
		if !ok {
			rows[pi] = campaign.InjectionRow{Outcome: campaign.OutcomeNoCrash}
		}
	}
	return rows
}

// forker replays a cell's classes on one reused machine whose Prepare
// ran under a null accessor.
type forker struct {
	p       *probe
	pl      *probePlan
	m       *crash.Machine
	em      *crash.Emulator
	w       engine.Workload
	prepErr bool
}

func (p *probe) newForker(pl *probePlan) *forker {
	f := &forker{p: p, pl: pl}
	f.m, f.em, f.w = p.build(pl.cell, pl.assets, pl.trace, pl.span)
	acc := f.m.Heap.Accessor()
	f.m.Heap.SetAccessor(mem.NullAccessor{})
	var err error
	p.timed("prepare", pl.trace, pl.span, func() { err = f.w.Prepare(f.m, f.em) })
	f.m.Heap.SetAccessor(acc)
	f.prepErr = err != nil
	return f
}

func (f *forker) run(st *crash.CrashState) classResult {
	var res classResult
	if f.prepErr {
		res.prepErr = true
		return res
	}
	p, m, em, w := f.p, f.m, f.em, f.w
	trace, parent := f.pl.trace, f.pl.span
	p.timed("restore", trace, parent, func() { m.RestoreCrash(st) })
	p.tr.Add("crash.restore_calls", 1)
	flushes0 := m.LLC.Stats().Flushes

	recStart := m.Clock.Now()
	var from int64
	var err error
	p.sim("recover", trace, parent, m, func() { from, err = safeRecover(w) })
	res.recoverNS = m.Clock.Since(recStart)
	if err != nil {
		res.recoverErr = true
		return res
	}
	resStart := m.Clock.Now()
	var crashedAgain bool
	p.sim("resume", trace, parent, m, func() { crashedAgain, err = safeResume(em, w, from) })
	res.resumeNS = m.Clock.Since(resStart)
	res.flushes = m.LLC.Stats().Flushes - flushes0
	res.resumeOps = em.OpCount()
	p.tr.Add("workload.resume_ops", res.resumeOps)
	if err != nil || crashedAgain {
		res.resumeErr = true
		return res
	}
	p.sim("verify", trace, parent, m, func() { err = safeVerify(w) })
	res.verifyFail = err != nil
	return res
}

// expand specializes a class result to one member point.
func expand(res classResult, crashOps int64, pl *probePlan) campaign.InjectionRow {
	var row campaign.InjectionRow
	if res.prepErr {
		row.Outcome = campaign.OutcomeUnrecoverable
		return row
	}
	row.CrashOps = crashOps
	row.RecoverSimNS = res.recoverNS
	if res.recoverErr {
		row.Outcome = campaign.OutcomeUnrecoverable
		return row
	}
	row.ResumeSimNS = res.resumeNS
	row.FlushLines = res.flushes
	classify(&row, pl, res.resumeOps)
	switch {
	case res.resumeErr:
		row.Outcome = campaign.OutcomeUnrecoverable
	case res.verifyFail:
		row.Outcome = campaign.OutcomeCorrupt
	default:
		finalOutcome(&row, pl)
	}
	return row
}

// safeRecover calls w.Recover, converting panics into errors.
func safeRecover(w engine.Workload) (from int64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("recovery panic: %v", r)
		}
	}()
	return w.Recover()
}

// safeResume completes the computation inside the emulator (for op
// counting), converting panics into errors.
func safeResume(em *crash.Emulator, w engine.Workload, from int64) (crashed bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("resume panic: %v", r)
		}
	}()
	return em.Run(func() { w.Run(from) }), nil
}

// safeVerify calls w.Verify, converting panics into errors.
func safeVerify(w engine.Workload) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("verify panic: %v", r)
		}
	}()
	return w.Verify()
}
