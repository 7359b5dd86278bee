package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"adcc/pkg/adcc"
)

// tinySpec is a campaign small enough for a unit test that still
// crosses two families, both systems and a fault model.
var tinySpec = adcc.CampaignSpec{
	Scale: 0.02, Seed: 7, Workloads: []string{"kvlog", "mm"},
	FaultModels: []string{"failstop", "torn"}, InjectionsPerCell: 6,
}

func TestLegacyAndReplayGiveTheSameReportDigest(t *testing.T) {
	ctx := context.Background()
	digests := map[bool]string{}
	for _, replay := range []bool{false, true} {
		spec := tinySpec
		spec.Replay = replay
		cw := campaignWorkload{spec: spec, parallel: 2}
		cs, _, err := cw.setup(spec.Seed)
		if err != nil {
			t.Fatal(err)
		}
		rep, b, err := cw.sweep(ctx, cs, "")
		if err != nil {
			t.Fatal(err)
		}
		res := newResult()
		checkSweep(res, cs, rep)
		if res.failed != 0 {
			t.Fatalf("replay=%v: checks failed: %v", replay, res.problems)
		}
		digests[replay] = digest(b)
	}
	if digests[false] != digests[true] {
		t.Fatalf("legacy report sha256 %s, replay %s", digests[false], digests[true])
	}
}

func TestProbeRowsMatchEngineStore(t *testing.T) {
	ctx := context.Background()
	for _, replay := range []bool{false, true} {
		spec := tinySpec
		spec.Replay = replay
		cw := campaignWorkload{spec: spec, parallel: 2}
		cs, _, err := cw.setup(spec.Seed)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "s.adccs")
		if _, _, err := cw.sweep(ctx, cs, path); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		tr := NewTracer()
		got, err := newProbe(tr, cs.spec, cw.parallel).run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Store, want) {
			t.Fatalf("replay=%v: probe store (%d bytes) differs from the engine's (%d bytes)", replay, len(got.Store), len(want))
		}
		if got.Rows != cs.expected {
			t.Fatalf("replay=%v: probe wrote %d rows, want %d", replay, got.Rows, cs.expected)
		}
		// The probe's grid is the campaign's grid.
		keys, err := adcc.CampaignCells(nil, cs.spec)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cells != len(keys) {
			t.Fatalf("replay=%v: probe swept %d cells, campaign %d", replay, got.Cells, len(keys))
		}
	}
}

func TestProbeCountsRepeatForASeed(t *testing.T) {
	ctx := context.Background()
	spec := tinySpec
	spec.Replay = true
	counts := func() map[string]int64 {
		tr := NewTracer()
		if _, err := newProbe(tr, spec, 2).run(ctx); err != nil {
			t.Fatal(err)
		}
		out := map[string]int64{}
		for _, k := range []string{"cache.accesses", "cache.line_misses", "cache.flushes", "crash.classes", "workload.resume_ops"} {
			out[k] = tr.Count(k)
		}
		return out
	}
	a, b := counts(), counts()
	for k := range a {
		if a[k] != b[k] {
			t.Errorf("%s: %d then %d", k, a[k], b[k])
		}
	}
	if a["crash.classes"] == 0 || a["cache.accesses"] == 0 {
		t.Errorf("counters not recorded: %v", a)
	}
}

// TestBenchmarkJSONMatchesMetricTables keeps BENCHMARK.json and the
// metric tables the benchmark prints from in step.
func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit || got[i].Better != want[i].Better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no implementation", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %s, the benchmark has %d", strings.Join(names, ","), len(workloads))
	}
}

func TestServiceSessionChecksPass(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 4 s service session")
	}
	o := options{seed: 3, seconds: 4 * time.Second, tmp: t.TempDir(), state: t.TempDir()}
	res, err := runService(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 || res.attempted == 0 {
		t.Fatalf("%d of %d operations failed: %v", res.failed, res.attempted, res.problems)
	}
	for _, d := range append(endToEnd, printedOnly...) {
		if _, ok := res.metrics[d.Name]; !ok {
			t.Errorf("metric %s not measured", d.Name)
		}
	}
}
