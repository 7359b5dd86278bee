package campaign

import (
	"context"
	"testing"

	"adcc/internal/crash"
)

// fullGridConfig covers every workload, scheme, and system at CI scale.
func fullGridConfig(parallel int, replay bool) Config {
	return Config{Scale: 0.02, Parallel: parallel, PerCell: 3, Replay: replay}
}

// TestReplayDifferential is the replay engine's contract: the
// snapshot/fork path must reproduce the legacy per-injection path
// byte-for-byte over the full workload x scheme x system grid, at any
// worker-pool width on either side.
func TestReplayDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("full-grid differential campaign in -short mode")
	}
	legacy, err := Run(context.Background(), fullGridConfig(4, false))
	if err != nil {
		t.Fatalf("legacy campaign: %v", err)
	}
	want, err := legacy.EncodeJSON()
	if err != nil {
		t.Fatalf("encode legacy: %v", err)
	}
	for _, parallel := range []int{1, 8} {
		replay, err := Run(context.Background(), fullGridConfig(parallel, true))
		if err != nil {
			t.Fatalf("replay campaign (parallel=%d): %v", parallel, err)
		}
		got, err := replay.EncodeJSON()
		if err != nil {
			t.Fatalf("encode replay: %v", err)
		}
		if string(got) != string(want) {
			t.Errorf("replay report (parallel=%d) differs from legacy:\nlegacy:\n%s\nreplay:\n%s",
				parallel, want, got)
		}
	}
}

// TestReplayWallMetrics asserts both engines account per-cell wall
// cost: every cell of a completed campaign must report a positive
// per-injection wall time, and the bench roll-up must carry it.
func TestReplayWallMetrics(t *testing.T) {
	for _, replay := range []bool{false, true} {
		cfg := tinyConfig(2)
		cfg.Replay = replay
		rep, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("campaign (replay=%v): %v", replay, err)
		}
		for _, c := range rep.Cells {
			if c.WallNSPerInjection <= 0 {
				t.Errorf("replay=%v: cell %s/%s@%s has wall_ns_per_injection %v, want > 0",
					replay, c.Workload, c.Scheme, c.System, c.WallNSPerInjection)
			}
		}
		for _, r := range rep.BenchResults() {
			if r.WallNSPerInjection <= 0 {
				t.Errorf("replay=%v: bench row %s has wall_ns_per_injection %v, want > 0",
					replay, r.Name, r.WallNSPerInjection)
			}
		}
	}
}

// BenchmarkSnapshotFork measures the fork primitive the replay engine
// is built on: capture a copy-on-write post-crash snapshot of a mid-run
// machine, then restore it onto a reused fork machine and run full
// recovery/resume/verify.
func BenchmarkSnapshotFork(b *testing.B) {
	cfg := Config{Scale: 0.02, Workloads: []string{"mm"}}
	cells, err := cfg.cells()
	if err != nil {
		b.Fatalf("cells: %v", err)
	}
	cl := cells[0]
	newW := cl.Family.New(cfg.scale())

	// Profile on one machine, then record a mid-run snapshot on a fresh
	// one, exactly as the replay engine does.
	{
		m := cl.newMachine()
		em := crash.NewEmulator(m)
		w, err := newW(cl.Scheme)
		if err != nil {
			b.Fatalf("new: %v", err)
		}
		if err := w.Prepare(m, em); err != nil {
			b.Fatalf("prepare: %v", err)
		}
		prof := em.Profile(func() { w.Run(w.Start()) })
		benchPlan = plan{Cell: cl, New: newW, Profile: prof}
	}
	m := cl.newMachine()
	em := crash.NewEmulator(m)
	w, err := benchPlan.instance()
	if err != nil {
		b.Fatalf("new: %v", err)
	}
	if err := w.Prepare(m, em); err != nil {
		b.Fatalf("prepare: %v", err)
	}
	var st *crash.CrashState
	em.Record(func() { w.Run(w.Start()) },
		[]crash.CrashPoint{{Op: benchPlan.Profile.Ops / 2}},
		func(int) { st = m.CrashSnapshot(st) })
	if st == nil {
		b.Fatal("recording run captured no snapshot")
	}

	f := newForker(benchPlan)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := f.run(st)
		if res.prepErr || res.recoverErr || res.resumeErr || res.verifyFail {
			b.Fatalf("fork failed: %+v", res)
		}
	}
}

var benchPlan plan
