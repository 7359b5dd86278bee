package adcc_test

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"adcc/pkg/adcc"
)

// stampWorkload is a test-only workload family built on the public API
// alone: it stamps iteration numbers into a small persistent array and,
// under algorithm-directed schemes, persists each stamp and then a
// progress index, so recovery resumes from the last persisted
// iteration. Other schemes restart from scratch, which is always valid:
// every stamp is an idempotent overwrite. All of its state lives on the
// simulated machine, as the replay engine's forks require.
type stampWorkload struct {
	iters int
	algo  bool

	m    *adcc.Machine
	em   *adcc.Emulator
	data i64Region
	idx  i64Region
}

// i64Region is the part of the heap's int64 region the workload uses.
type i64Region interface {
	At(i int) int64
	Set(i int, v int64)
	Addr(i int) adcc.Addr
	Live() []int64
}

const (
	stampSlots   = 64
	stampTrigger = "stamp-iter"
)

func (w *stampWorkload) Name() string { return "stamp" }

func (w *stampWorkload) Prepare(m *adcc.Machine, em *adcc.Emulator) error {
	w.m, w.em = m, em
	w.data = m.Heap.AllocI64("stamp.data", stampSlots)
	w.idx = m.Heap.AllocI64("stamp.idx", 1)
	return nil
}

func (w *stampWorkload) Start() int64 { return 0 }

func (w *stampWorkload) Run(from int64) {
	for i := int(from); i < w.iters; i++ {
		w.data.Set(i%stampSlots, int64(i+1))
		if w.algo {
			w.m.Persist(w.data.Addr(i%stampSlots), 8)
			w.idx.Set(0, int64(i+1))
			w.m.Persist(w.idx.Addr(0), 8)
		}
		if w.em != nil {
			w.em.Trigger(stampTrigger)
		}
	}
}

func (w *stampWorkload) Recover() (int64, error) {
	if !w.algo {
		return 0, nil
	}
	from := w.idx.At(0)
	if from < 0 || from > int64(w.iters) {
		return 0, fmt.Errorf("stamp: restart iteration %d out of range", from)
	}
	return from, nil
}

func (w *stampWorkload) Verify() error {
	for j, got := range w.data.Live() {
		// Slot j holds the stamp of the last iteration that hit it.
		var want int64
		if j < w.iters {
			want = int64(j + (w.iters-1-j)/stampSlots*stampSlots + 1)
		}
		if got != want {
			return fmt.Errorf("stamp: slot %d = %d, want %d", j, got, want)
		}
	}
	return nil
}

func (w *stampWorkload) Metrics() map[string]float64 { return nil }

// TestCustomFamilySweepsThroughCampaign is the one-registration
// contract for workload families: a family registered once through
// RegisterWorkload is swept end to end by RunCampaign, its factory is
// sized once per campaign, and its report is byte-identical across
// both engines and pool widths.
func TestCustomFamilySweepsThroughCampaign(t *testing.T) {
	var sized atomic.Int32
	reg := adcc.NewRegistry()
	if err := reg.RegisterWorkload(adcc.WorkloadSpec{
		Name:    "stamp",
		Schemes: []string{adcc.SchemeNative, adcc.SchemeAlgoNVM},
		New: func(scale float64) func(adcc.Scheme) (adcc.Workload, error) {
			sized.Add(1)
			iters := max(int(400*scale), 100)
			return func(sc adcc.Scheme) (adcc.Workload, error) {
				return &stampWorkload{iters: iters, algo: sc.Kind() == adcc.KindAlgo}, nil
			}
		},
	}); err != nil {
		t.Fatalf("RegisterWorkload: %v", err)
	}

	var want []byte
	for _, replay := range []bool{false, true} {
		for _, parallel := range []int{1, 8} {
			sized.Store(0)
			rep, err := adcc.New(reg,
				adcc.WithScale(0.5),
				adcc.WithParallelism(parallel),
				adcc.WithWorkloads("stamp"),
				adcc.WithFaultModels("failstop", "torn"),
				adcc.WithInjectionsPerCell(12),
				adcc.WithCampaignReplay(replay),
			).RunCampaign(context.Background())
			if err != nil {
				t.Fatalf("replay=%v parallel=%d: RunCampaign: %v", replay, parallel, err)
			}
			if n := sized.Load(); n != 1 {
				t.Errorf("replay=%v parallel=%d: family sized %d times, want once", replay, parallel, n)
			}
			got, err := rep.EncodeJSON()
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
				if len(rep.Cells) != 8 { // 2 schemes x 2 systems x 2 fault models
					t.Fatalf("swept %d cells, want 8", len(rep.Cells))
				}
				for _, c := range rep.Cells {
					if !strings.HasPrefix(c.Key(), "stamp/") {
						t.Errorf("unexpected cell %s in a stamp-only sweep", c.Key())
					}
					// Persisted progress resumes in place; a restart
					// from scratch is detected recomputation.
					outcome := c.Recomputed
					if c.Scheme == adcc.SchemeAlgoNVM {
						outcome = c.Clean
					}
					if c.Injections == 0 || outcome != c.Injections {
						t.Errorf("%s: %+v, want every injection clean (algo) or recomputed (native)", c.Key(), c)
					}
				}
				continue
			}
			if string(got) != string(want) {
				t.Fatalf("replay=%v parallel=%d: report differs from legacy serial:\n%s\nwant:\n%s", replay, parallel, got, want)
			}
		}
	}
}
