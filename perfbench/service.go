package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"adcc/pkg/adcc"
	"adcc/pkg/adcc/adccclient"
	"adcc/pkg/adcc/adccd"
)

// The service workload drives an in-process adccd server over loopback
// HTTP with a closed loop of callers. Each caller repeats: submit a
// fresh spec and wait for its SSE done frame, fetch the report and the
// store, check the server's store-rebuilt report against the report;
// then resubmit finished specs and fetch their reports; then run
// aggregate queries. Once the session's fixed budget of fresh jobs is
// spent, iterations skip the first step, so every run does the same
// campaign work and the server holds the same number of jobs. Halfway
// through, the server is closed and started again over the same state
// directory, so the second half reads finished reports from the on-disk
// cache.
const (
	serviceCallers = 2
	freshJobs      = 200 // fresh jobs per session, shared by the callers
	cachedPerIter  = 10  // resubmissions per iteration
	queryPerIter   = 10  // aggregate queries per iteration
)

// freshSpec is the campaign a caller submits as its i-th fresh job:
// 16 kvlog cells x 8 points under replay, with a seed no other job uses.
func freshSpec(seed int64, caller, i int) adcc.CampaignSpec {
	h := fnv.New64a()
	fmt.Fprintf(h, "perfbench|%d|%d|%d", seed, caller, i)
	return adcc.CampaignSpec{Workloads: []string{"kvlog"}, Scale: 0.02, Replay: true, Seed: int64(h.Sum64() >> 1)}
}

// instance is one running server and its HTTP front end.
type instance struct {
	srv    *adccd.Server
	hs     *http.Server
	base   string
	served chan struct{} // closed when Serve returns
}

func startInstance(ctx context.Context, stateDir string, client *http.Client, wrap func(http.Handler) http.Handler) (*instance, error) {
	srv, err := adccd.New(adccd.Config{StateDir: stateDir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	in := &instance{srv: srv, hs: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(), served: make(chan struct{})}
	go func() {
		defer close(in.served)
		_ = in.hs.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, in.base+"/v1/healthz", nil)
	if err == nil {
		var resp *http.Response
		if resp, err = client.Do(req); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("healthz: HTTP %d", resp.StatusCode)
			}
		}
	}
	if err != nil {
		in.stop()
		return nil, err
	}
	return in, nil
}

// stop closes the service (ending event streams and jobs) and then the
// HTTP server, and waits for Serve to return.
func (in *instance) stop() {
	in.srv.Close()
	in.hs.Close()
	<-in.served
}

// finished is a completed fresh job a caller can resubmit or query.
type finished struct {
	id     string
	spec   adcc.CampaignSpec
	report []byte
}

// session is one closed-loop run against a server that restarts
// halfway.
type session struct {
	seed     int64
	dir      string
	client   *http.Client
	wrap     func(http.Handler) http.Handler
	expected int // injections per fresh job
	trace    *svcTrace

	mu  sync.RWMutex // held for reading by each caller iteration, for writing by the restart
	cur *instance

	res       *result
	rmu       sync.Mutex
	reportMS  []float64
	cachedMS  []float64
	queryMS   []float64
	claimed   int           // fresh jobs started, at most freshJobs
	freshWall time.Duration // session start to the last fresh report
	freshCPU  time.Duration // process CPU time over the same span
	start     time.Time
	cpu0      time.Duration
	restart   time.Duration
	stats     adccd.Stats // counters of servers already stopped
	stores    [][]byte    // the first few fresh jobs' stores
	keepStore int
}

// op records one attempted operation and, when err is non-nil, its
// failure.
func (s *session) op(err error, format string, args ...any) bool {
	s.rmu.Lock()
	defer s.rmu.Unlock()
	s.res.attempted++
	if err != nil {
		s.res.fail(1, "%s: %v", fmt.Sprintf(format, args...), err)
		return false
	}
	return true
}

func (s *session) api() *adccclient.Client {
	return adccclient.New(s.cur.base, s.client)
}

// run drives the callers for d, restarting the server at d/2.
func (s *session) run(ctx context.Context, d time.Duration) time.Duration {
	start := time.Now()
	s.start, s.cpu0 = start, cpuTime()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < serviceCallers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var done []finished
			for i := 0; time.Now().Before(deadline); i++ {
				s.mu.RLock()
				done = s.iteration(ctx, c, i, done)
				s.mu.RUnlock()
				if len(done) == 0 && s.spent() {
					return // every fresh job this caller ran failed: nothing to resubmit
				}
			}
		}()
	}
	restartErr := make(chan error, 1)
	go func() {
		select {
		case <-time.After(time.Until(start.Add(d / 2))):
		case <-ctx.Done():
			restartErr <- ctx.Err()
			return
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		t0 := time.Now()
		st := s.cur.srv.Stats()
		s.cur.stop()
		in, err := startInstance(ctx, s.dir, s.client, s.wrap)
		s.restart = time.Since(t0)
		if err == nil {
			s.addStats(st)
			s.cur = in
		}
		restartErr <- err
	}()
	wg.Wait()
	if err := <-restartErr; err != nil {
		s.op(err, "restart")
	}
	return time.Since(start)
}

func (s *session) addStats(st adccd.Stats) {
	s.stats.Submitted += st.Submitted
	s.stats.Deduped += st.Deduped
	s.stats.CacheHits += st.CacheHits
}

// iteration is one pass of a caller's loop; it returns the caller's
// list of finished jobs.
func (s *session) iteration(ctx context.Context, caller, i int, done []finished) []finished {
	cl := s.api()
	if s.claim() {
		spec := freshSpec(s.seed, caller, i)
		report, store, ok := s.fresh(ctx, cl, spec)
		if !ok {
			return done
		}
		rebuilt, err := s.get(ctx, "/v1/campaigns/"+report.id+"/query?view=report")
		if err == nil && !bytes.Equal(rebuilt, report.bytes) {
			err = errors.New("store-rebuilt report differs from /report")
		}
		if !s.op(err, "query view=report %s", report.id) {
			return done
		}
		s.rmu.Lock()
		if len(s.stores) < s.keepStore {
			s.stores = append(s.stores, store)
		}
		s.rmu.Unlock()
		done = append(done, finished{id: report.id, spec: spec, report: report.bytes})
	}
	if len(done) == 0 {
		return done
	}

	// Resubmit finished specs: answered from the job table, or after the
	// restart from the on-disk cache.
	for k := 0; k < cachedPerIter; k++ {
		f := done[(i*cachedPerIter+k)%len(done)]
		t := time.Now()
		again, err := cl.Submit(ctx, f.spec)
		if !s.op(err, "resubmit") {
			continue
		}
		if again.Status != adcc.JobDone {
			s.op(fmt.Errorf("status %s", again.Status), "resubmit %s", f.id)
			continue
		}
		b, err := cl.Report(ctx, again.ID)
		if err == nil && !bytes.Equal(b, f.report) {
			err = errors.New("cached report differs from the fresh one")
		}
		if s.op(err, "cached report %s", again.ID) {
			s.rmu.Lock()
			s.cachedMS = append(s.cachedMS, float64(time.Since(t))/1e6)
			s.rmu.Unlock()
		}
	}
	for k := 0; k < queryPerIter; k++ {
		f := done[(i*queryPerIter+k)%len(done)]
		t := time.Now()
		agg, err := cl.QueryAggregate(ctx, f.id, adcc.StoreFilter{})
		if err == nil && agg.Rows != int64(s.expected) {
			err = fmt.Errorf("aggregate saw %d rows, want %d", agg.Rows, s.expected)
		}
		if s.op(err, "query %s", f.id) {
			s.rmu.Lock()
			s.queryMS = append(s.queryMS, float64(time.Since(t))/1e6)
			s.rmu.Unlock()
		}
	}
	return done
}

// claim takes one fresh job from the session's budget.
func (s *session) claim() bool {
	s.rmu.Lock()
	defer s.rmu.Unlock()
	if s.claimed >= freshJobs {
		return false
	}
	s.claimed++
	return true
}

// spent reports whether the fresh-job budget is used up.
func (s *session) spent() bool {
	s.rmu.Lock()
	defer s.rmu.Unlock()
	return s.claimed >= freshJobs
}

// freshReport is a fresh job's report.
type freshReport struct {
	id    string
	bytes []byte
}

// fresh submits spec, waits for the job's SSE done frame (not a polling
// wait), and fetches its report and store; ok is false if any step
// failed.
func (s *session) fresh(ctx context.Context, cl *adccclient.Client, spec adcc.CampaignSpec) (rep freshReport, store []byte, ok bool) {
	t0 := time.Now()
	info, err := cl.Submit(ctx, spec)
	if !s.op(err, "submit") {
		return rep, nil, false
	}
	submitted := time.Now()
	if info.Status == adcc.JobDone {
		s.op(errors.New("fresh spec answered without running"), "submit %s", info.ID)
		return rep, nil, false
	}
	var first time.Time
	frames := 0
	var final adcc.JobInfo
	err = cl.Events(ctx, info.ID, -1, func(e adcc.StreamEvent) error {
		if frames == 0 {
			first = time.Now()
		}
		frames++
		if e.Type == "done" {
			return json.Unmarshal(e.Data, &final)
		}
		return nil
	})
	if !s.op(err, "events %s", info.ID) {
		return rep, nil, false
	}
	doneAt := time.Now()
	if final.Status != adcc.JobDone || final.Injections != s.expected {
		s.op(fmt.Errorf("status %s with %d injections, want done with %d", final.Status, final.Injections, s.expected), "job %s", info.ID)
		return rep, nil, false
	}
	b, err := cl.Report(ctx, info.ID)
	if !s.op(err, "report %s", info.ID) {
		return rep, nil, false
	}
	reportMS := float64(time.Since(t0)) / 1e6
	store, err = cl.Store(ctx, info.ID)
	if !s.op(err, "store %s", info.ID) {
		return rep, nil, false
	}
	s.rmu.Lock()
	s.reportMS = append(s.reportMS, reportMS)
	s.freshWall, s.freshCPU = time.Since(s.start), cpuTime()-s.cpu0
	s.rmu.Unlock()
	if s.trace != nil {
		s.trace.job(submitted, first, doneAt, frames)
	}
	return freshReport{id: info.ID, bytes: b}, store, true
}

// get fetches one endpoint's body.
func (s *session) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.cur.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, err
}

// serviceSetup starts a server over a fresh state directory under
// stateRoot.
func serviceSetup(ctx context.Context, stateRoot string, client *http.Client, wrap func(http.Handler) http.Handler, reps int) (*instance, string, float64, error) {
	if err := os.MkdirAll(stateRoot, 0o755); err != nil {
		return nil, "", 0, err
	}
	type started struct {
		in  *instance
		dir string
	}
	st, setupS, err := repeatSetup(reps, func() (started, error) {
		dir, err := os.MkdirTemp(stateRoot, "adccd-")
		if err != nil {
			return started{}, err
		}
		in, err := startInstance(ctx, dir, client, wrap)
		return started{in, dir}, err
	}, func(st started) {
		st.in.stop()
		os.RemoveAll(st.dir)
	})
	return st.in, st.dir, setupS, err
}

func runService(ctx context.Context, o options) (*result, error) {
	transport := &http.Transport{MaxIdleConnsPerHost: 2 * serviceCallers}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}
	spec := freshSpec(o.seed, 0, 0)
	keys, err := adcc.CampaignCells(nil, spec)
	if err != nil {
		return nil, err
	}
	expected := len(keys) * pointsPerCell(spec)

	res := newResult()
	res.size("callers", serviceCallers)
	res.size("fresh_spec", "kvlog/scale=0.02/replay")
	res.size("cells_per_job", len(keys))
	res.size("injections_per_job", expected)
	res.size("cached_per_iteration", cachedPerIter)
	res.size("query_per_iteration", queryPerIter)
	res.size("fresh_budget", freshJobs)

	if !o.trace {
		in, dir, setupS, err := serviceSetup(ctx, o.state, client, nil, setupReps)
		if err != nil {
			return nil, err
		}
		s := &session{seed: o.seed, dir: dir, client: client, expected: expected, cur: in, res: res}
		runtime.GC() // start from a collected heap, not the set-up's garbage
		s.run(ctx, o.seconds)
		s.cur.stop()
		s.report(res, setupS)
		return res, nil
	}

	// Traced: an untraced half-length session for the overhead baseline,
	// then a traced one.
	in, dir, _, err := serviceSetup(ctx, o.state, client, nil, 1)
	if err != nil {
		return nil, err
	}
	base := &session{seed: o.seed, dir: dir, client: client, expected: expected, cur: in, res: res}
	base.run(ctx, o.seconds/2)
	base.cur.stop()

	tr := newSvcTrace()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	in, dir, _, err = serviceSetup(ctx, o.state, client, tr.wrap, 1)
	if err != nil {
		return nil, err
	}
	s := &session{seed: o.seed, dir: dir, client: client, wrap: tr.wrap, expected: expected, cur: in, res: res, trace: tr, keepStore: 20}
	s.run(ctx, o.seconds/2)
	st := s.cur.srv.Stats()
	s.cur.stop()
	runtime.ReadMemStats(&ms1)
	s.addStats(st)

	res.setRuntime(&ms0, &ms1)
	res.set("trace.overhead_frac", Median(s.reportMS)/Median(base.reportMS)-1, len(s.reportMS))
	tr.metrics(res)
	res.set("adccd.restart_s", s.restart.Seconds(), 1)
	res.set("adccd.state_mb", dirMB(dir), 1)
	res.set("adccd.dedupe_ratio", float64(s.stats.Deduped+s.stats.CacheHits)/float64(max(s.stats.Submitted, 1)), int(s.stats.Submitted))
	if err := storeLayer(res, s.stores, 1); err != nil {
		return nil, err
	}
	zeroUnused(res)
	res.size("fresh_jobs", len(s.reportMS))
	return res, nil
}

// report sets the end-to-end metrics of an untraced session. The
// throughputs cover the span from the session's start to its last fresh
// report.
func (s *session) report(res *result, setupS float64) {
	res.set("setup_s", setupS, setupReps)
	injections := float64(len(s.reportMS) * s.expected)
	res.set("injections_per_s", injections/s.freshWall.Seconds(), len(s.reportMS))
	res.set("injections_per_cpu_s", injections/s.freshCPU.Seconds(), len(s.reportMS))
	res.set("peak_rss_mb", peakRSSMB(), 1)
	res.setPercentiles("report", s.reportMS, 50, 90)
	res.setPercentiles("cached", s.cachedMS, 50, 90, 99)
	res.setPercentiles("query", s.queryMS, 50, 90, 99)
	res.size("fresh_jobs", len(s.reportMS))
	res.size("cached_ops", len(s.cachedMS))
	res.size("query_ops", len(s.queryMS))
	res.size("restart_s", fmt.Sprintf("%.4f", s.restart.Seconds()))
}

// svcTrace records a span per HTTP request from a middleware around the
// server's handler, and per fresh job the SSE frame times.
type svcTrace struct {
	tr     *Tracer
	mu     sync.Mutex
	jobs   map[string]int // trace id per job id seen in a request path
	queue  []float64
	run    []float64
	frames []float64
}

func newSvcTrace() *svcTrace { return &svcTrace{tr: NewTracer(), jobs: map[string]int{}} }

func (t *svcTrace) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := t.tr.Begin(route(r), t.traceID(r), 0)
		h.ServeHTTP(w, r)
		t.tr.Finish(id)
	})
}

// traceID numbers the job a request addresses; submissions, which name
// no job yet, get 0.
func (t *svcTrace) traceID(r *http.Request) int {
	rest, ok := strings.CutPrefix(r.URL.Path, "/v1/campaigns/")
	if !ok {
		return 0
	}
	job, _, _ := strings.Cut(rest, "/")
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.jobs[job] == 0 {
		t.jobs[job] = len(t.jobs) + 1
	}
	return t.jobs[job]
}

// route names a request by its API route.
func route(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost:
		return "submit"
	case strings.HasSuffix(p, "/events"):
		return "events"
	case strings.HasSuffix(p, "/report"):
		return "report"
	case strings.HasSuffix(p, "/store"):
		return "store"
	case strings.HasSuffix(p, "/query") && r.URL.Query().Get("view") == "report":
		return "query_report"
	case strings.HasSuffix(p, "/query"):
		return "query"
	}
	return "other"
}

// job records one fresh job's client-side timeline: queued until the
// first SSE frame, running until the done frame.
func (t *svcTrace) job(submitted, first, done time.Time, frames int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.queue = append(t.queue, float64(first.Sub(submitted))/1e6)
	t.run = append(t.run, float64(done.Sub(first))/1e6)
	t.frames = append(t.frames, float64(frames))
}

func (t *svcTrace) metrics(res *result) {
	byRoute := map[string][]float64{}
	for _, s := range t.tr.Spans() {
		byRoute[s.Name] = append(byRoute[s.Name], float64(s.Dur())/1e6)
	}
	for _, r := range []string{"submit", "report", "store", "query"} {
		res.set("adccd."+r+"_ms", Median(byRoute[r]), len(byRoute[r]))
	}
	res.set("adccd.queue_ms", Median(t.queue), len(t.queue))
	res.set("adccd.run_ms", Median(t.run), len(t.run))
	res.set("adccd.events_per_job", Median(t.frames), len(t.frames))
}

// zeroUnused reports every per-layer metric the workload did not
// measure as 0: the adccd layer on the campaign workloads, and the
// campaign-engine layers on service, whose jobs run inside the server.
func zeroUnused(res *result) {
	for _, d := range perLayer {
		if _, ok := res.metrics[d.Name]; !ok {
			res.set(d.Name, 0, 0)
		}
	}
}

// dirMB is the total size of the regular files under dir.
func dirMB(dir string) float64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return float64(n) / (1 << 20)
}
