package mem

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// oracleHeap allocates the snapshot oracle's regions: multi-page F64
// and I64 regions, one of them not a whole number of pages, plus a
// sub-line region.
func oracleHeap() *Heap {
	h := NewHeap(nil)
	h.AllocF64("f.pages", 3*pageWords)
	h.AllocI64("i.ragged", 2*pageWords+37)
	h.AllocF64("f.tiny", 3)
	h.AllocI64("i.pages", pageWords)
	return h
}

// imageCopy is the naive reference snapshot: a deep copy of every
// region's image words.
func imageCopy(h *Heap) [][]uint64 {
	out := make([][]uint64, len(h.Regions()))
	for i, r := range h.Regions() {
		out[i] = slices.Clone(r.state().imageW)
	}
	return out
}

func copiesEqual(a, b [][]uint64) bool {
	return slices.EqualFunc(a, b, slices.Equal[[]uint64])
}

// randWord draws a word biased toward collisions and float corner
// cases, so equal contents recur across snapshots and +0/-0 and NaN
// payloads must be told apart by bit pattern.
func randWord(rng *rand.Rand) uint64 {
	switch rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return math.Float64bits(math.Copysign(0, -1))
	case 2:
		return math.Float64bits(math.NaN()) | uint64(rng.Intn(4))
	default:
		return uint64(rng.Intn(3))
	}
}

// TestSnapshotImagesOracle drives random image mutations through every
// mutation path and checks each copy-on-write capture against a naive
// deep copy: restoring a capture reproduces its bytes, and Equal and
// Hash agree with content equality on every pair of captures.
func TestSnapshotImagesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	h := oracleHeap()
	fork := oracleHeap()
	regions := h.Regions()

	// setLive writes one live word through the typed accessors.
	setLive := func(r Region, i int, w uint64) {
		switch r := r.(type) {
		case *F64:
			r.Set(i, math.Float64frombits(w))
		case *I64:
			r.Set(i, int64(w))
		}
	}
	var snaps []*ImageState
	var refs [][][]uint64
	var prev *ImageState
	for step := range 400 {
		r := regions[rng.Intn(len(regions))]
		n := r.Bytes() / 8
		switch op := rng.Intn(10); {
		case op < 5: // stores, then a line writeback
			i := rng.Intn(n)
			for range 1 + rng.Intn(3) {
				setLive(r, min(i+rng.Intn(8), n-1), randWord(rng))
			}
			h.Writeback(r.Base()+Addr(8*i), LineSize)
		case op == 5:
			h.StorePersistWord(r.Base()+Addr(8*rng.Intn(n)), randWord(rng))
		case op == 6: // raw image write, no writeback
			w := randWord(rng)
			switch r := r.(type) {
			case *F64:
				r.Image()[rng.Intn(n)] = math.Float64frombits(w)
			case *I64:
				r.Image()[rng.Intn(n)] = int64(w)
			}
		case op == 7:
			setLive(r, rng.Intn(n), randWord(rng))
			h.SyncAllImages()
		case op == 8 && len(snaps) > 0:
			h.RestoreImages(snaps[rng.Intn(len(snaps))])
		default: // a volatile store alone persists nothing
			setLive(r, rng.Intn(n), randWord(rng))
		}

		st := h.SnapshotImages(prev)
		ref := imageCopy(h)
		prev = st
		snaps = append(snaps, st)
		refs = append(refs, ref)

		// Restore a random capture onto the fork (touching the fork
		// first, sometimes, so the restore memo must miss) and compare
		// both live and image words against the reference copy.
		k := rng.Intn(len(snaps))
		if rng.Intn(2) == 0 {
			fr := fork.Regions()[rng.Intn(len(regions))]
			setLive(fr, 0, randWord(rng))
		}
		fork.RestoreImages(snaps[k])
		for i, fr := range fork.Regions() {
			s := fr.state()
			if !slices.Equal(s.imageW, refs[k][i]) || !slices.Equal(s.liveW, refs[k][i]) {
				t.Fatalf("step %d: restore of capture %d differs from deep copy in region %s", step, k, fr.Name())
			}
		}
		// A capture of a different heap holding the same images is
		// Equal only by content.
		if other := fork.SnapshotImages(nil); !other.Equal(snaps[k]) || other.Hash() != snaps[k].Hash() {
			t.Fatalf("step %d: cross-heap capture of equal images not Equal/same hash", step)
		}
	}

	for i := range snaps {
		for j := range snaps {
			want := copiesEqual(refs[i], refs[j])
			if got := snaps[i].Equal(snaps[j]); got != want {
				t.Fatalf("Equal(%d, %d) = %v, content equal = %v", i, j, got, want)
			}
			if got := snaps[i].Hash() == snaps[j].Hash(); got != want {
				t.Fatalf("Hash(%d) == Hash(%d) is %v, content equal = %v", i, j, got, want)
			}
		}
	}
}

// TestSnapshotImagesSharesUnchangedPages checks the cost of a capture:
// after a single-line writeback into a 2.5 MiB heap, the next capture
// shares every page but one with the previous capture, by pointer.
func TestSnapshotImagesSharesUnchangedPages(t *testing.T) {
	h, meta := pmemLogHeap()
	prev := h.SnapshotImages(nil)
	meta.Set(3*pageWords+5, -1)
	h.Writeback(meta.Addr(3*pageWords+5).LineAddr(), LineSize)
	next := h.SnapshotImages(prev)

	pages, unshared := 0, 0
	for i, e := range next.regions {
		for j, pg := range e.pages {
			pages++
			if pg != prev.regions[i].pages[j] {
				unshared++
			}
		}
	}
	if pages != (2<<20+512<<10)/PageSize || unshared != 1 {
		t.Fatalf("capture copied %d of %d pages, want 1", unshared, pages)
	}
	if next.regions[1] != prev.regions[1] {
		t.Fatal("untouched region not shared by entry")
	}
	if next.Equal(prev) {
		t.Fatal("captures differing in one line compare Equal")
	}
}
