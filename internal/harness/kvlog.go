package harness

import (
	"context"
	"fmt"

	"adcc/internal/bench"
	"adcc/internal/crash"
	"adcc/internal/engine"
	"adcc/internal/kvlog"
)

// kvlogLLCBytes is the LLC used by the kvlog experiment: the campaign
// size. The store (index + log) stays cache-resident, the served-
// traffic regime where unflushed state is exactly what a crash loses.
const kvlogLLCBytes = 1 << 20

// kvlogOpts is the KV-store configuration at the experiment scale.
func kvlogOpts(o Options) kvlog.Options {
	return kvlog.Options{Requests: o.scaleInt(2400, 240), KeySpace: 256, ScanLen: 8, CkptEvery: 16, Seed: 33}
}

// RunKVLog drives the served-traffic workload family: a persistent KV
// store under every mechanism, presented the way a serving system is
// judged — simulated throughput and request tail latency — plus the
// runtime normalization the paper uses. One end-of-run crash test
// proves the algorithm-directed log replay rebuilds a verified index;
// the statistical validation (every crash point, every scheme, fault
// models) lives in the campaign experiment, whose grid includes the
// kvlog cells.
func RunKVLog(ctx context.Context, o Options) (*Table, error) {
	opts := kvlogOpts(o)
	o.logf("kvlog: requests=%d keyspace=%d", opts.Requests, opts.KeySpace)
	t, err := runtimeTable{
		name:    "kvlog",
		title:   "Persistent KV store under mechanisms (throughput and request tail latency)",
		cases:   extendedCases(),
		machine: func(sys crash.SystemKind) *crash.Machine { return newMachine(sys, kvlogLLCBytes, 16) },
		workload: func(sc engine.Scheme) engine.Workload {
			return kvlog.NewWorkload(opts, nil, sc)
		},
		headers: []string{"kOps/s", "p50(ns)", "p99(ns)"},
		extra: func(_ engine.Scheme, w engine.Workload) []any {
			mt := w.Metrics()
			return []any{fmt.Sprintf("%.1f", mt["ops_per_sec"]/1e3),
				int64(mt["p50_req_ns"]), int64(mt["p99_req_ns"])}
		},
	}.run(ctx, o)
	if err != nil {
		return nil, err
	}

	// Crash test: inject at the end of the last request and recover by
	// replaying the persistent log prefix into a cleared index.
	m := newMachine(crash.NVMOnly, kvlogLLCBytes, 16)
	em := crash.NewEmulator(m)
	s := kvlog.NewStore(m, em, opts)
	em.CrashAtTrigger(kvlog.TriggerReqEnd, opts.Requests)
	if !em.Run(func() { s.Run(1) }) {
		return nil, fmt.Errorf("kvlog: crash test did not crash")
	}
	rec, from, err := s.Recover()
	if err != nil {
		return nil, fmt.Errorf("kvlog: algorithm-directed recovery failed: %w", err)
	}
	resumeStart := m.Clock.Now()
	s.Run(from)
	resume := m.Clock.Since(resumeStart)
	if err := s.Verify(nil); err != nil {
		return nil, fmt.Errorf("kvlog: algorithm-directed recovery failed verification: %w", err)
	}
	o.Collector.Record(bench.Result{
		Name:       "kvlog/recovery",
		SimNS:      rec.ReplayNS + resume,
		RecoveryNS: rec.ReplayNS,
	})
	t.AddNote("crash after request %d: %d log records replayed into a cleared index in %.3f ms, state verified",
		rec.ReqDone, rec.Replayed, float64(rec.ReplayNS)/1e6)
	t.AddNote("algo flushes only the appended log record + the high-water-mark line; the index is rebuilt by idempotent replay, never flushed")
	return t, nil
}
