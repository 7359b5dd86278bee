package harness

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden tables in testdata")

func TestRunCasesPreservesOrder(t *testing.T) {
	o := Options{Parallel: 8}
	got, err := runCases(context.Background(), o, "t", nil, 100, func(i int) (int, error) {
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("result %d = %d, want %d", i, v, i*i)
		}
	}
}

func TestRunCasesBoundsConcurrency(t *testing.T) {
	const workers = 3
	var active, peak atomic.Int64
	o := Options{Parallel: workers}
	_, err := runCases(context.Background(), o, "t", nil, 64, func(i int) (int, error) {
		n := active.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		for j := 0; j < 1000; j++ { // widen the overlap window
			_ = j
		}
		active.Add(-1)
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("peak concurrency %d exceeds bound %d", p, workers)
	}
}

func TestRunCasesReportsLowestIndexError(t *testing.T) {
	o := Options{Parallel: 4}
	errA := errors.New("case 2 failed")
	_, err := runCases(context.Background(), o, "t", nil, 8, func(i int) (int, error) {
		if i == 5 {
			return 0, errors.New("case 5 failed")
		}
		if i == 2 {
			return 0, errA
		}
		return i, nil
	})
	if !errors.Is(err, errA) {
		t.Fatalf("err = %v, want the lowest-index failure", err)
	}
}

func TestRunCasesSerialFallback(t *testing.T) {
	for _, par := range []int{0, 1, -3} {
		got, err := runCases(context.Background(), Options{Parallel: par}, "t", nil, 5, func(i int) (string, error) {
			return fmt.Sprint(i), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 5 || got[4] != "4" {
			t.Fatalf("parallel=%d: got %v", par, got)
		}
	}
}

// TestParallelRunsAreByteIdentical is the harness's determinism
// contract: every experiment's table must be byte-identical whether its
// cases run serially or through the worker pool. Each case builds its
// own seeded machine, so scheduling cannot leak into results. The
// serial table must also match testdata/<name>.golden byte for byte,
// which pins every driver's output across refactors.
func TestParallelRunsAreByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep in -short mode")
	}
	for _, e := range All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			serialTab, err := e.Run(context.Background(), Options{Scale: 0.05})
			if err != nil {
				t.Fatalf("serial run: %v", err)
			}
			parTab, err := e.Run(context.Background(), Options{Scale: 0.05, Parallel: 4})
			if err != nil {
				t.Fatalf("parallel run: %v", err)
			}
			serial, par := serialTab.String(), parTab.String()
			if serial != par {
				t.Fatalf("parallel table differs from serial:\n--- serial ---\n%s--- parallel ---\n%s", serial, par)
			}
			golden := filepath.Join("testdata", e.Name+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(serial), 0o644); err != nil {
					t.Fatalf("update golden: %v", err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("read golden (run with -update to create): %v", err)
			}
			if serial != string(want) {
				t.Fatalf("table differs from %s (if intentional, regenerate with: go test ./internal/harness -run TestParallelRunsAreByteIdentical -update):\n--- got ---\n%s--- want ---\n%s", golden, serial, want)
			}
		})
	}
}
