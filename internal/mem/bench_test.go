package mem

import "testing"

// pmemLogHeap builds a heap shaped like the PMEM-library undo log: a
// 2 MiB metadata region and a 512 KiB value region, images synced.
func pmemLogHeap() (*Heap, *I64) {
	h := NewHeap(nil)
	meta := h.AllocI64("pmem.log.meta", 2<<20/8)
	vals := h.AllocF64("pmem.log.vals", 512<<10/8)
	for i := range meta.Len() {
		meta.live[i] = int64(i)
	}
	for i := range vals.Len() {
		vals.live[i] = float64(i)
	}
	h.SyncAllImages()
	return h, meta
}

// BenchmarkSnapshotImages measures one copy-on-write capture after a
// single-line writeback into the 2 MiB region, the common case of a
// replay crash point under a truncated undo log.
func BenchmarkSnapshotImages(b *testing.B) {
	h, meta := pmemLogHeap()
	prev := h.SnapshotImages(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		meta.Set(0, int64(i))
		h.Writeback(meta.Addr(0), LineSize)
		prev = h.SnapshotImages(prev)
	}
}

// BenchmarkRestoreImages measures restoring two alternating captures
// that differ in one line of the 2 MiB region, so every restore misses
// the per-region memo for that region.
func BenchmarkRestoreImages(b *testing.B) {
	h, meta := pmemLogHeap()
	a := h.SnapshotImages(nil)
	meta.Set(0, -1)
	h.Writeback(meta.Addr(0), LineSize)
	c := h.SnapshotImages(a)
	fork, _ := pmemLogHeap()
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		if i%2 == 0 {
			fork.RestoreImages(a)
		} else {
			fork.RestoreImages(c)
		}
	}
}
