// Command perfbench is the repository's benchmark. It runs one workload
// for a fixed time from a seed, checks the program's outputs, and prints
// every metric by name with its unit and sample count; the last line of
// its standard output is one JSON object holding the result.
//
//	bash perfbench/run.sh --workload legacy-grid --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// re-runs the workload under in-memory spans and reports the per-layer
// metrics instead. See README.md.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// processStart approximates the process start for setup_s: package
// variables are initialized before main runs.
var processStart = time.Now()

// options are one run's command-line inputs.
type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
	tmp     string // scratch directory, removed at exit
	// state holds the service's state directories. They are left in
	// place after the run: deleting a session's thousands of files at
	// the end makes a filesystem with online discard (ext4 -o discard)
	// slow for the next minute or two, which would slow the next run
	// instead of this one.
	state string
}

// result is what a workload run produced.
type result struct {
	attempted, failed int64
	problems          []string // failed checks, first few kept
	metrics           map[string]sample
	sizes             []string // resolved input sizes, "name=value"
	digest            string   // SHA-256 of a campaign report, "" if none
}

// sample is one reported metric value with its sample count.
type sample struct {
	value float64
	n     int
}

func newResult() *result { return &result{metrics: map[string]sample{}} }

func (r *result) set(name string, v float64, n int) { r.metrics[name] = sample{v, n} }

func (r *result) size(name string, v any) { r.sizes = append(r.sizes, fmt.Sprintf("%s=%v", name, v)) }

// setPercentiles sets <name>_p<p>_ms to each nearest-rank percentile
// of the millisecond samples.
func (r *result) setPercentiles(name string, ms []float64, ps ...int) {
	for _, p := range ps {
		r.set(fmt.Sprintf("%s_p%d_ms", name, p), Percentile(ms, float64(p)), len(ms))
	}
}

// setRuntime sets the Go runtime's allocation and GC deltas between two
// readings.
func (r *result) setRuntime(before, after *runtime.MemStats) {
	gcs := int(after.NumGC - before.NumGC)
	r.set("go.alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20), 1)
	r.set("go.gc_cycles", float64(gcs), 1)
	r.set("go.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6, gcs)
}

// fail counts n failed operations and keeps the reason.
func (r *result) fail(n int64, format string, args ...any) {
	r.failed += n
	if len(r.problems) < 8 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// workload runs one named workload.
type workload func(ctx context.Context, o options) (*result, error)

var workloads = map[string]workload{
	"legacy-grid":   legacyGrid.run,
	"replay-shared": replayShared.run,
	"replay-mc":     replayMC.run,
	"service":       runService,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload to run: legacy-grid, replay-shared, replay-mc, service")
	seed := fl.Int64("seed", 1, "input seed")
	seconds := fl.Int("seconds", 25, "measured run length in seconds")
	trace := fl.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	o := options{
		seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		tmp: tmp, state: filepath.Join(".bench_build", "service-state"),
	}
	steal0, total0 := stealTicks()
	res, err := wl(context.Background(), o)
	steal1, total1 := stealTicks()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	defs, extra := endToEnd, printedOnly
	if o.trace {
		defs, extra = perLayer, nil
	}
	if total1 > total0 {
		res.size("host_steal_frac", fmt.Sprintf("%.3f", float64(steal1-steal0)/float64(total1-total0)))
	}
	if err := report(stdout, *name, o, res, defs, extra); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	return 0
}

// report prints the stamp, every metric with its unit and sample count,
// and the final JSON line, which holds the defs but not the extra
// metrics.
func report(w io.Writer, name string, o options, res *result, defs, extra []metricDef) error {
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]jsonMetric{}}
	if res.attempted < 1 {
		return fmt.Errorf("no operations attempted")
	}

	fmt.Fprintf(w, "workload %s seed=%d seconds=%g trace=%v\n", name, o.seed, o.seconds.Seconds(), o.trace)
	fmt.Fprintf(w, "host go=%s gomaxprocs=%d nproc=%d cpu=%q\n", runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel())
	fmt.Fprintf(w, "source commit=%s tree_sha256=%s\n", commit(), treeDigest())
	fmt.Fprintf(w, "sizes %s\n", strings.Join(res.sizes, " "))
	if res.digest != "" {
		fmt.Fprintf(w, "report_sha256 %s\n", res.digest)
	}
	for _, p := range res.problems {
		fmt.Fprintf(w, "check failed: %s\n", p)
	}
	res.set("failed_frac", float64(res.failed)/float64(res.attempted), int(res.attempted))
	extra = append([]metricDef{{Name: "failed_frac", Unit: "frac"}}, extra...)
	for i, d := range append(extra, defs...) {
		s, ok := res.metrics[d.Name]
		if !ok || math.IsNaN(s.value) || math.IsInf(s.value, 0) {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		line := fmt.Sprintf("metric %-26s %16.10g %-5s n=%d", d.Name, s.value, d.Unit, s.n)
		if i < len(extra) {
			line += " (not in the JSON line)"
		} else {
			out.Metrics[d.Name] = jsonMetric{Value: s.value, Unit: d.Unit}
		}
		if d.Moves != "" {
			line = fmt.Sprintf("%-66s moves: %s", line, d.Moves)
		}
		fmt.Fprintln(w, line)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", b)
	return nil
}

// repeatSetup runs setup reps times and returns the median duration;
// the first repetition is timed from process start. keep receives the
// last repetition's product; every other product is released.
func repeatSetup[T any](reps int, setup func() (T, error), release func(T)) (T, float64, error) {
	var keep T
	var samples []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		if i == 0 {
			start = processStart
		}
		v, err := setup()
		samples = append(samples, time.Since(start).Seconds())
		if err != nil {
			return keep, 0, err
		}
		if i > 0 {
			release(keep)
		}
		keep = v
	}
	return keep, Median(samples), nil
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// cpuTime is the CPU time the process has used so far, user plus
// system. On a virtual machine it excludes time the host stole from the
// guest's CPUs, which wall time does not.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTicks reads the machine's CPU time stolen by a hypervisor and
// its total CPU time, in clock ticks, from /proc/stat; both are 0 where
// it cannot be read.
func stealTicks() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		var v int64
		fmt.Sscan(f, &v)
		total += v
		if i == 7 { // user nice system idle iowait irq softirq steal
			steal = v
		}
	}
	return steal, total
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// root is the repository root the benchmark is run from.
const root = "."

// commit reads the checked-out commit from .git without running git;
// outside a git checkout it reports "none".
func commit() string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	return "unknown"
}

// treeDigest hashes every Go source and module file of the repository,
// so runs of the same code can be matched when no commit is known.
func treeDigest() string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() && (strings.HasSuffix(p, ".go") || filepath.Base(p) == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
