package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"adcc/internal/engine"
	"adcc/internal/resultstore"
	"adcc/pkg/adcc"
)

// campaignWorkload is a campaign spec swept through adcc.Runner, the
// path crashsim -campaign, adccbench and adccd all take.
type campaignWorkload struct {
	spec     adcc.CampaignSpec // Seed is set from --seed
	parallel int
}

// storeOps is how many cached and how many query operations a campaign
// run makes against its sweeps' result store, at least: enough for a
// p99 with ten samples beyond it.
const storeOps = 1000

var (
	// legacyGrid: every family, scheme and system under the legacy
	// engine at crashsim's default scale; machine build, Prepare, the
	// access path and the fault overlay do the work.
	legacyGrid = campaignWorkload{
		spec:     adcc.CampaignSpec{Scale: 0.1, FaultModels: []string{"failstop", "torn"}},
		parallel: 2,
	}
	// replayShared: the high-sharing families under the replay engine at
	// paper scale; recording, capture, dedup and restore do the work.
	replayShared = campaignWorkload{
		spec: adcc.CampaignSpec{
			Scale: 1.0, Workloads: []string{"cg", "mm", "stencil", "kvlog"},
			FaultModels: []string{"failstop", "torn"}, InjectionsPerCell: 24, Replay: true,
		},
		parallel: 1,
	}
	// replayMC: Monte Carlo under replay; classes barely share, so the
	// suffix re-simulation after each restore does the work.
	replayMC = campaignWorkload{
		spec:     adcc.CampaignSpec{Scale: 0.25, Workloads: []string{"mc"}, Replay: true},
		parallel: 2,
	}
)

// selective are the algorithm-directed schemes that must verify every
// fail-stop injection; algo-naive corrupting is the expected result.
var selective = map[string]bool{
	engine.SchemeAlgoNVM:    true,
	engine.SchemeAlgoHetero: true,
	engine.SchemeAlgoEvery:  true,
}

// setupReps is how many times each run repeats its set-up; setup_s is
// the median.
const setupReps = 31

// campaignSetup is what a campaign workload builds before its first
// timed call: the registry, the validated grid and the runner options.
type campaignSetup struct {
	reg      *adcc.Registry
	spec     adcc.CampaignSpec
	cells    int
	perCell  int
	expected int
}

func (cw campaignWorkload) setup(seed int64) (campaignSetup, float64, error) {
	return repeatSetup(setupReps, func() (campaignSetup, error) {
		spec := cw.spec
		spec.Seed = seed
		reg := adcc.NewRegistry()
		keys, err := adcc.CampaignCells(reg, spec)
		if err != nil {
			return campaignSetup{}, err
		}
		perCell := pointsPerCell(spec)
		return campaignSetup{reg: reg, spec: spec, cells: len(keys), perCell: perCell, expected: len(keys) * perCell}, nil
	}, func(campaignSetup) {})
}

// pointsPerCell is the number of crash points the campaign sweeps per
// cell of spec.
func pointsPerCell(spec adcc.CampaignSpec) int {
	if spec.InjectionsPerCell > 0 {
		return spec.InjectionsPerCell
	}
	return sizes{spec.Canonical().Scale}.n(120, 8)
}

// sweep runs the campaign once through adcc.Runner, writing its result
// store to storePath, and returns the report envelope bytes.
func (cw campaignWorkload) sweep(ctx context.Context, cs campaignSetup, storePath string, extra ...adcc.Option) (*adcc.CampaignReport, []byte, error) {
	opts := append(cs.spec.Options(), adcc.WithParallelism(cw.parallel))
	if storePath != "" {
		opts = append(opts, adcc.WithCampaignStore(storePath))
	}
	rep, err := adcc.New(cs.reg, append(opts, extra...)...).RunCampaign(ctx)
	if err != nil {
		return nil, nil, err
	}
	b, err := adcc.NewCampaignReport(rep).EncodeJSON()
	return rep, b, err
}

// checkSweep applies the per-report output checks, counting every
// injection they fail.
func checkSweep(res *result, cs campaignSetup, rep *adcc.CampaignReport) {
	if rep.Injections != cs.expected || len(rep.Cells) != cs.cells {
		res.fail(int64(cs.expected), "report has %d injections in %d cells, want %d x %d",
			rep.Injections, len(rep.Cells), cs.cells, cs.perCell)
		return
	}
	for _, c := range rep.Cells {
		if c.FaultModel != "" || !selective[c.Scheme] {
			continue
		}
		if bad := c.Injections - c.Clean - c.Recomputed; bad > 0 {
			res.fail(int64(bad), "%s: %d of %d fail-stop injections not verified", c.Key(), bad, c.Injections)
		}
	}
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

func (cw campaignWorkload) run(ctx context.Context, o options) (*result, error) {
	cs, setupS, err := cw.setup(o.seed)
	if err != nil {
		return nil, err
	}
	if o.trace {
		return cw.traced(ctx, o, cs)
	}
	res := newResult()
	res.set("setup_s", setupS, setupReps)
	storePath := filepath.Join(o.tmp, "sweep.adccs")

	// Timed sweeps: every sweep of one run must give the same report.
	// After each sweep, a batch of operations answers from its store;
	// spreading them over the run keeps one slow moment of the host
	// from owning their tail.
	var reportMS, ratePerSweep, ratePerCPU, cachedMS, queryMS []float64
	var report []byte
	batch := storeOps
	runtime.GC() // start from a collected heap, not the set-up's garbage
	deadline := time.Now().Add(o.seconds)
	for {
		start, cpu0 := time.Now(), cpuTime()
		rep, b, err := cw.sweep(ctx, cs, storePath)
		if err != nil {
			return nil, err
		}
		d, cpu := time.Since(start), cpuTime()-cpu0
		reportMS = append(reportMS, float64(d)/1e6)
		ratePerSweep = append(ratePerSweep, float64(cs.expected)/d.Seconds())
		ratePerCPU = append(ratePerCPU, float64(cs.expected)/cpu.Seconds())
		res.attempted += int64(cs.expected)
		checkSweep(res, cs, rep)
		if report == nil {
			report = b
			res.digest = digest(b)
			// Split the operations evenly over the sweeps the run will fit.
			fit := max(1, int(o.seconds/d))
			batch = (storeOps + fit - 1) / fit
		} else if !bytes.Equal(b, report) {
			res.fail(int64(cs.expected), "sweep %d report differs from sweep 1 (sha256 %s)", len(reportMS), digest(b))
		}
		cachedMS, queryMS = answer(res, storePath, report, cs.expected, batch, cachedMS, queryMS)
		// Start another sweep only if at least half of it fits.
		if time.Now().Add(d / 2).After(deadline) {
			break
		}
	}
	if short := storeOps - len(cachedMS); short > 0 {
		cachedMS, queryMS = answer(res, storePath, report, cs.expected, short, cachedMS, queryMS)
	}

	res.set("injections_per_s", Median(ratePerSweep), len(ratePerSweep))
	res.set("injections_per_cpu_s", Median(ratePerCPU), len(ratePerCPU))
	res.set("peak_rss_mb", peakRSSMB(), 1)
	res.setPercentiles("report", reportMS, 50, 90)
	res.setPercentiles("cached", cachedMS, 50, 90, 99)
	res.setPercentiles("query", queryMS, 50, 90, 99)
	cw.sizes(res, cs)
	res.size("sweeps", len(reportMS))
	res.size("injections", len(reportMS)*cs.expected)
	res.size("cached_ops", len(cachedMS))
	res.size("query_ops", len(queryMS))
	return res, nil
}

// answer runs n cached and n query operations, alternating, against a
// finished sweep's store, after a collection so they start from the
// same heap state every time. Rebuilding the report must give the live
// report's bytes, and the aggregate must see every row.
func answer(res *result, storePath string, report []byte, rows, n int, cachedMS, queryMS []float64) ([]float64, []float64) {
	runtime.GC()
	for i := 0; i < n; i++ {
		start := time.Now()
		b, err := rebuildReport(storePath)
		cachedMS = append(cachedMS, float64(time.Since(start))/1e6)
		res.attempted++
		if err != nil || !bytes.Equal(b, report) {
			res.fail(1, "report rebuilt from the store differs from the live report (err %v)", err)
		}
		start = time.Now()
		got, err := aggregateRows(storePath)
		queryMS = append(queryMS, float64(time.Since(start))/1e6)
		res.attempted++
		if err != nil || got != int64(rows) {
			res.fail(1, "store aggregate saw %d rows, want %d (err %v)", got, rows, err)
		}
	}
	return cachedMS, queryMS
}

func (cw campaignWorkload) sizes(res *result, cs campaignSetup) {
	spec := cs.spec.Canonical()
	res.size("engine", map[bool]string{false: "legacy", true: "replay"}[spec.Replay])
	res.size("scale", spec.Scale)
	res.size("parallel", cw.parallel)
	res.size("cells", cs.cells)
	res.size("points_per_cell", cs.perCell)
	res.size("injections_per_sweep", cs.expected)
}

// rebuildReport reads a result store file and re-exports its campaign
// report envelope, as adccquery export and adccd's report query do.
func rebuildReport(path string) ([]byte, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	st, err := adcc.OpenResultStoreBytes(b)
	if err != nil {
		return nil, err
	}
	rep, err := st.CampaignReport()
	if err != nil {
		return nil, err
	}
	return adcc.NewCampaignReport(rep).EncodeJSON()
}

// aggregateRows reads a result store file and runs the unfiltered
// aggregate query, as adccquery agg and adccd's /query do.
func aggregateRows(path string) (int64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	st, err := adcc.OpenResultStoreBytes(b)
	if err != nil {
		return 0, err
	}
	agg, err := st.Aggregate(adcc.StoreFilter{})
	return agg.Rows, err
}

// traced measures one sweep observed through campaign.Run's own
// callbacks, one untraced sweep, and one probe pass under spans, then
// checks the probe's rows against the engine's result store.
func (cw campaignWorkload) traced(ctx context.Context, o options, cs campaignSetup) (*result, error) {
	res := newResult()
	cw.sizes(res, cs)
	storePath := filepath.Join(o.tmp, "sweep.adccs")

	// The engines' own callbacks: progress events split the phases and
	// OnCell carries each cell's wall time. This sweep also warms the
	// process up for the two timed passes that follow.
	if err := cw.observeCallbacks(ctx, cs, res); err != nil {
		return nil, err
	}

	// Untraced reference: wall time, Go runtime cost, and the store.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	rep, report, err := cw.sweep(ctx, cs, storePath)
	if err != nil {
		return nil, err
	}
	untraced := time.Since(start)
	runtime.ReadMemStats(&ms1)
	res.attempted += int64(cs.expected)
	checkSweep(res, cs, rep)
	res.digest = digest(report)
	res.setRuntime(&ms0, &ms1)
	engineStore, err := os.ReadFile(storePath)
	if err != nil {
		return nil, err
	}

	// The probe under spans.
	tr := NewTracer()
	start = time.Now()
	pr, err := newProbe(tr, cs.spec, cw.parallel).run(ctx)
	if err != nil {
		return nil, err
	}
	probeWall := time.Since(start)
	res.set("trace.overhead_frac", probeWall.Seconds()/untraced.Seconds()-1, 1)
	res.attempted += int64(pr.Rows)
	if !bytes.Equal(pr.Store, engineStore) {
		res.fail(int64(pr.Rows), "probe rows differ from the engine's result store (%d vs %d bytes)", len(pr.Store), len(engineStore))
	}
	probeMetrics(res, tr)
	res.size("probe_rows", pr.Rows)
	res.size("probe_store_sha256", digest(pr.Store)[:16])

	if err := storeLayer(res, [][]byte{engineStore}, 5); err != nil {
		return nil, err
	}
	zeroUnused(res)
	return res, nil
}

// observeCallbacks runs one sweep with an event sink and a cell
// checkpoint hook and derives the campaign and engine phase metrics.
func (cw campaignWorkload) observeCallbacks(ctx context.Context, cs campaignSetup, res *result) error {
	var mu sync.Mutex
	var profileEnd, lastEvent time.Time
	var cellMS []float64
	var cellWall time.Duration
	sink := adcc.SinkFunc(func(e adcc.Event) {
		now := time.Now()
		mu.Lock()
		defer mu.Unlock()
		if p, ok := e.(adcc.Progress); ok && p.Stage == "campaign/profile" {
			profileEnd = now
		}
		lastEvent = now
	})
	onCell := func(c adcc.CampaignCell) {
		wall := time.Duration(c.WallNSPerInjection * float64(c.Injections))
		mu.Lock()
		cellMS = append(cellMS, float64(wall)/1e6)
		cellWall += wall
		mu.Unlock()
	}
	start := time.Now()
	rep, _, err := cw.sweep(ctx, cs, "", adcc.WithEventSink(sink), adcc.WithCampaignCheckpoint(onCell))
	if err != nil {
		return err
	}
	end := time.Now()
	res.attempted += int64(cs.expected)
	checkSweep(res, cs, rep)
	execute := lastEvent.Sub(profileEnd)
	res.set("campaign.profile_s", profileEnd.Sub(start).Seconds(), 1)
	res.set("campaign.execute_s", execute.Seconds(), 1)
	res.set("campaign.aggregate_s", end.Sub(lastEvent).Seconds(), 1)
	res.set("campaign.cell_p50_ms", Percentile(cellMS, 50), len(cellMS))
	res.set("campaign.cell_max_ms", Percentile(cellMS, 100), len(cellMS))
	res.set("engine.pool_busy_frac", cellWall.Seconds()/(float64(max(cw.parallel, 1))*execute.Seconds()), len(cellMS))
	return nil
}

// probeMetrics derives the crash, workload and cache metrics from the
// probe's spans and counters.
func probeMetrics(res *result, tr *Tracer) {
	spans := tr.Spans()
	self := SelfByName(spans)
	n := map[string]int{}
	for _, s := range spans {
		n[s.Name]++
	}
	secs := func(metric, span string) { res.set(metric, self[span].Seconds(), n[span]) }
	count := func(metric string) { res.set(metric, float64(tr.Count(metric)), 1) }

	secs("crash.record_s", "record")
	secs("crash.capture_s", "capture")
	count("crash.capture_calls")
	count("crash.version_skips")
	secs("crash.dedup_s", "dedup")
	count("crash.equal_calls")
	count("crash.classes")
	ppc := 0.0
	if c := tr.Count("crash.classes"); c > 0 {
		ppc = float64(tr.Count("crash.class_points")) / float64(c)
	}
	res.set("crash.points_per_class", ppc, int(tr.Count("crash.classes")))
	secs("crash.restore_s", "restore")
	count("crash.restore_calls")
	secs("crash.machine_build_s", "machine_build")
	secs("crash.prefix_s", "prefix")
	count("crash.prefix_ops")
	secs("crash.overlay_s", "overlay")
	secs("workload.prepare_s", "prepare")
	secs("workload.recover_s", "recover")
	secs("workload.resume_s", "resume")
	count("workload.resume_ops")
	secs("workload.verify_s", "verify")
	count("cache.accesses")
	count("cache.line_misses")
	count("cache.writebacks")
	count("cache.flushes")
	var acc int64
	var busy time.Duration
	for _, s := range []string{"record", "prefix", "resume"} {
		acc += tr.Count("cache.accesses." + s)
		busy += self[s]
	}
	rate := 0.0
	if busy > 0 {
		rate = float64(acc) / busy.Seconds()
	}
	res.set("sim.accesses_per_s", rate, n["record"]+n["prefix"]+n["resume"])
}

// storeLayer times the result-store and report layers on finished
// stores: re-encoding the rows, opening, scanning, aggregating and
// rebuilding the report envelope. Each store is processed reps times;
// the reported times are medians per store, the rate is over all scans.
func storeLayer(res *result, stores [][]byte, reps int) error {
	var write, open, agg, enc, sizes, reportBytes []float64
	var rows int64
	var scan time.Duration
	for _, b := range stores {
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			st, err := adcc.OpenResultStoreBytes(b)
			if err != nil {
				return fmt.Errorf("open store: %w", err)
			}
			t1 := time.Now()
			var all []adcc.StoreRow
			if err := st.Scan(adcc.StoreFilter{}, func(r adcc.StoreRow) error {
				all = append(all, r)
				return nil
			}); err != nil {
				return fmt.Errorf("scan store: %w", err)
			}
			t2 := time.Now()
			if _, err := st.Aggregate(adcc.StoreFilter{}); err != nil {
				return fmt.Errorf("aggregate store: %w", err)
			}
			t3 := time.Now()
			rep, err := st.CampaignReport()
			if err != nil {
				return fmt.Errorf("rebuild report: %w", err)
			}
			env, err := adcc.NewCampaignReport(rep).EncodeJSON()
			if err != nil {
				return err
			}
			t4 := time.Now()
			again, err := rewriteStore(st, all)
			if err != nil {
				return err
			}
			t5 := time.Now()
			if !bytes.Equal(again, b) {
				res.fail(1, "re-encoded store differs from the original (%d vs %d bytes)", len(again), len(b))
			}
			res.attempted++
			open = append(open, t1.Sub(t0).Seconds())
			scan += t2.Sub(t1)
			rows += int64(len(all))
			agg = append(agg, t3.Sub(t2).Seconds())
			enc = append(enc, t4.Sub(t3).Seconds())
			write = append(write, t5.Sub(t4).Seconds())
			sizes = append(sizes, float64(len(b)))
			reportBytes = append(reportBytes, float64(len(env)))
		}
	}
	n := len(open)
	res.set("resultstore.write_s", Median(write), n)
	res.set("resultstore.bytes", Median(sizes), n)
	res.set("resultstore.open_s", Median(open), n)
	res.set("resultstore.rows_per_s", float64(rows)/scan.Seconds(), n)
	res.set("resultstore.aggregate_s", Median(agg), n)
	res.set("report.encode_s", Median(enc), n)
	res.set("report.bytes", Median(reportBytes), n)
	return nil
}

// rewriteStore encodes a store's rows again through the result-store
// writer, cell by cell in file order.
func rewriteStore(st *adcc.ResultStore, rows []adcc.StoreRow) ([]byte, error) {
	var buf bytes.Buffer
	w := resultstore.NewWriter(&buf, st.Scale(), st.Seed())
	next := 0
	for _, c := range st.Cells() {
		w.BeginCell(c)
		for _, r := range rows[next : next+c.Injections] {
			w.Row(r.InjectionRow)
		}
		next += c.Injections
	}
	if err := w.Close(); err != nil {
		return nil, fmt.Errorf("re-encode store: %w", err)
	}
	return buf.Bytes(), nil
}
