package main

import (
	"math"
	"sync"
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	// A cell whose injections ran on two workers: [1,4] and [3,6]
	// overlap, [8,9] does not, and [9,12] sticks out of the parent.
	spans := []Span{
		{ID: 1, Name: "cell", Start: 0, End: ms(10)},
		{ID: 2, Parent: 1, Name: "inj", Start: ms(1), End: ms(4)},
		{ID: 3, Parent: 1, Name: "inj", Start: ms(3), End: ms(6)},
		{ID: 4, Parent: 1, Name: "inj", Start: ms(8), End: ms(9)},
		{ID: 5, Parent: 1, Name: "inj", Start: ms(9), End: ms(12)},
		{ID: 6, Parent: 2, Name: "resume", Start: ms(2), End: ms(3)},
	}
	self := SelfTimes(spans)
	// Union of children inside [0,10] is [1,6] + [8,10] = 7 ms.
	if got, want := self[1], ms(3); got != want {
		t.Errorf("cell self = %v, want %v", got, want)
	}
	if got, want := self[2], ms(2); got != want {
		t.Errorf("inj self = %v, want %v", got, want)
	}
	by := SelfByName(spans)
	if got, want := by["inj"], ms(2+3+1+3); got != want {
		t.Errorf("inj self by name = %v, want %v", got, want)
	}
}

func TestSelfTimeOfParallelTracer(t *testing.T) {
	tr := NewTracer()
	root := tr.Begin("cell", 1, 0)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := tr.Begin("inj", 1, root)
			time.Sleep(20 * time.Millisecond)
			tr.Finish(id)
		}()
	}
	wg.Wait()
	tr.Finish(root)
	spans := tr.Spans()
	self := SelfTimes(spans)
	var kidSum time.Duration
	for _, s := range spans[1:] {
		kidSum += s.Dur()
	}
	// Two concurrent 20 ms children cover ~20 ms of the parent, not 40.
	if self[root] < 0 || self[root] > spans[0].Dur()-20*time.Millisecond {
		t.Errorf("root self %v out of range (dur %v, children sum %v)", self[root], spans[0].Dur(), kidSum)
	}
	if kidSum < 40*time.Millisecond {
		t.Errorf("children sum %v, want >= 40ms", kidSum)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	vals := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{5, 15}, {30, 20}, {40, 20}, {50, 35}, {90, 50}, {100, 50},
	} {
		if got := Percentile(append([]float64(nil), vals...), c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	// p99 of 1..1000 is the 990th value; p50 of an even count is the
	// lower middle.
	var big []float64
	for i := 1000; i >= 1; i-- {
		big = append(big, float64(i))
	}
	if got := Percentile(big, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2 {
		t.Errorf("median of 1..4 = %v, want 2", got)
	}
	if got := Median(nil); !math.IsNaN(got) {
		t.Errorf("median of nothing = %v, want NaN", got)
	}
}
