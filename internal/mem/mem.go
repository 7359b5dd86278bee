// Package mem provides the simulated main-memory substrate of the crash
// emulator: a heap of addressable regions, each pairing a *live* slice
// (the values the simulated CPU observes, i.e. the union of cache and
// memory contents) with a *shadow image* (the values currently persistent
// in NVM).
//
// Every element access on a region notifies an Accessor — in practice the
// cache simulator from internal/cache — with the address and size of the
// access. When the cache evicts or flushes a dirty line it asks the heap
// to write the line back, and the heap copies the covered byte range from
// the live slice into the image. When the emulated machine crashes, the
// cache is discarded and the image alone is the recovery state, exactly
// as on real NVM hardware with volatile caches.
//
// The correctness of this metadata-only design rests on a single-core
// write-back cache invariant: a resident line always holds the most
// recent value of every byte it covers, so materializing a writeback from
// the live slice is exact. See ARCHITECTURE.md, "Metadata-only cache
// exactness".
package mem

import (
	"fmt"
	"slices"
	"sort"
	"unsafe"
)

// LineSize is the cache-line granularity of the simulated machine, in
// bytes. All region allocations are line aligned so a line never spans
// two regions.
const LineSize = 64

// Addr is a simulated physical address.
type Addr uint64

// LineAddr returns the address of the cache line containing a.
func (a Addr) LineAddr() Addr { return a &^ (LineSize - 1) }

// Accessor observes every load and store issued against heap regions.
// The cache simulator implements Accessor; a no-op implementation is used
// for un-instrumented (native) execution.
type Accessor interface {
	// Load records a read of size bytes at address a.
	Load(a Addr, size int)
	// Store records a write of size bytes at address a.
	Store(a Addr, size int)
}

// NullAccessor ignores all accesses. It is the accessor of a heap whose
// workload runs natively (no cache simulation, no crash consistency).
type NullAccessor struct{}

// Load implements Accessor.
func (NullAccessor) Load(Addr, int) {}

// Store implements Accessor.
func (NullAccessor) Store(Addr, int) {}

// Region is the common interface of all typed memory regions.
type Region interface {
	// Name returns the diagnostic name given at allocation.
	Name() string
	// Base returns the first simulated address of the region.
	Base() Addr
	// Bytes returns the size of the region in bytes.
	Bytes() int

	// state returns the region's word-level storage and counters.
	state() *regionState
}

// PageSize is the copy-on-write granularity of image snapshots, in
// bytes: 64 lines. Pages are counted from a region's base, which is
// line aligned, so a line never straddles two pages.
const PageSize = 4096

// pageWords is the number of 8-byte words in a page.
const pageWords = PageSize / 8

// regionState is the type-independent core of a region: its live and
// image slices viewed as raw 8-byte words (floats by bit pattern), and
// its mutation counters. Every path that can mutate the live slice
// bumps liveVer; every path that can mutate the image bumps imageVer
// and, in addition, either the version of each page it touched
// (pageVer, for line-granular writebacks and word stores) or the
// region-wide epoch (for whole-region mutators: Image, syncImage,
// RestoreImages). The raw Live/Image accessors hand out mutable slices,
// so their bump is conservative: false-dirty costs a copy, a missed
// mutation would corrupt copy-on-write sharing. An unchanged counter
// therefore proves unchanged contents; a changed counter proves
// nothing.
type regionState struct {
	liveW, imageW []uint64
	liveVer       uint64
	imageVer      uint64
	epoch         uint64
	pageVer       []uint64
}

func (s *regionState) state() *regionState { return s }

func newRegionState[T float64 | int64](live, image []T) regionState {
	return regionState{
		liveW:   wordsOf(live),
		imageW:  wordsOf(image),
		pageVer: make([]uint64, (len(live)+pageWords-1)/pageWords),
	}
}

// wordsOf views an 8-byte numeric slice as its raw words. float64 and
// int64 share size and alignment and hold no pointers, so the view is
// exact; it lets one word-level path copy, hash and compare both region
// types bit for bit.
func wordsOf[T float64 | int64](s []T) []uint64 {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&s[0])), len(s))
}

// writeback copies bytes [off, off+n) from live to image.
func (s *regionState) writeback(off, n int) {
	lo := off / 8
	hi := min((off+n+7)/8, len(s.liveW))
	s.imageVer++
	for p := off / PageSize; p <= (off+n-1)/PageSize; p++ {
		s.pageVer[p]++
	}
	copy(s.imageW[lo:hi], s.liveW[lo:hi])
}

// restore copies the whole image into the live slice (restart).
func (s *regionState) restore() {
	s.liveVer++
	copy(s.liveW, s.imageW)
}

// syncImage copies the whole live slice into the image.
func (s *regionState) syncImage() {
	s.imageVer++
	s.epoch++
	copy(s.imageW, s.liveW)
}

// Heap allocates regions at line-aligned simulated addresses and routes
// writebacks from the cache simulator to the owning region.
type Heap struct {
	next    Addr
	regions []Region // sorted by base address
	acc     Accessor
	// lastFind (with its bounds denormalized into plain values, so the
	// memo check costs two compares and no interface calls) memoizes
	// the region of the most recent lookup: writebacks stream through
	// one region at a time, so the binary search is almost always
	// skipped.
	lastFind Region
	lastBase Addr
	lastEnd  Addr
	// imageVer counts image mutations (writebacks and image syncs). Two
	// observations of an untouched heap see the same version, so a
	// version compare is an O(1) "images unchanged since then" test —
	// the fast path behind campaign snapshot deduplication. A changed
	// version does not imply changed contents (a writeback may store the
	// value already present), so equal-content detection still needs a
	// full compare.
	imageVer uint64
	// imgMarks memoizes, per region, the last RestoreImages source entry
	// so repeated restores of the same snapshot skip untouched regions.
	imgMarks []imgMark
}

// NewHeap returns an empty heap whose accesses are observed by acc.
// A nil acc is replaced by NullAccessor.
func NewHeap(acc Accessor) *Heap {
	if acc == nil {
		acc = NullAccessor{}
	}
	// Leave address 0 unmapped so a zero Addr is recognizably invalid.
	return &Heap{next: LineSize, acc: acc}
}

// SetAccessor replaces the heap's access observer. This is used when an
// emulated machine restarts after a crash with a cold cache, and by the
// crash emulator to interpose instruction counting.
func (h *Heap) SetAccessor(acc Accessor) {
	if acc == nil {
		acc = NullAccessor{}
	}
	h.acc = acc
}

// Accessor returns the heap's current access observer.
func (h *Heap) Accessor() Accessor { return h.acc }

// reserve claims size bytes (rounded up to a whole number of lines) and
// returns the base address.
func (h *Heap) reserve(size int) Addr {
	if size < 0 {
		panic("mem: negative allocation")
	}
	base := h.next
	rounded := (Addr(size) + LineSize - 1) &^ (LineSize - 1)
	if rounded == 0 {
		rounded = LineSize
	}
	h.next += rounded
	return base
}

func (h *Heap) addRegion(r Region) {
	h.regions = append(h.regions, r)
}

// Writeback copies the byte range [a, a+size) from the live data into the
// NVM image of the owning region(s). It is called by the cache simulator
// when a dirty line is evicted or flushed. Ranges that fall outside any
// region (e.g. a line padding tail) are ignored harmlessly.
func (h *Heap) Writeback(a Addr, size int) {
	h.imageVer++
	for size > 0 {
		r := h.find(a)
		if r == nil {
			return
		}
		// find has primed lastBase/lastEnd with r's bounds.
		off := int(a - h.lastBase)
		n := min(size, int(h.lastEnd-a))
		r.state().writeback(off, n)
		a += Addr(n)
		size -= n
	}
}

// find returns the region containing address a, or nil, leaving the
// region's bounds in lastBase/lastEnd.
func (h *Heap) find(a Addr) Region {
	if r := h.lastFind; r != nil && a >= h.lastBase && a < h.lastEnd {
		return r
	}
	i := sort.Search(len(h.regions), func(i int) bool {
		return h.regions[i].Base() > a
	})
	if i == 0 {
		return nil
	}
	r := h.regions[i-1]
	base := r.Base()
	end := base + Addr(r.Bytes())
	if a >= end {
		return nil
	}
	h.lastFind, h.lastBase, h.lastEnd = r, base, end
	return r
}

// RestartFromImage models a process restart after a crash: every region's
// live slice is overwritten with its NVM image, discarding all values
// that existed only in volatile state.
func (h *Heap) RestartFromImage() {
	for _, r := range h.regions {
		r.state().restore()
	}
}

// SyncAllImages forces every region's image to equal its live data. It is
// used to establish initial conditions (the paper assumes the input state
// — matrix, right-hand side, grids — is persistent before the run).
func (h *Heap) SyncAllImages() {
	h.imageVer++
	for _, r := range h.regions {
		r.state().syncImage()
	}
}

// ImageVersion returns the heap's image-mutation counter; see the
// imageVer field for the compare semantics.
func (h *Heap) ImageVersion() uint64 { return h.imageVer }

// Regions returns the allocated regions in address order.
func (h *Heap) Regions() []Region { return h.regions }

// ImageWord returns the persistent-image word at 8-byte-aligned address
// a as raw bits, or ok=false when a is unaligned or unmapped. It reads
// the image directly, without charging a simulated access or bumping
// version counters: fault-model overlays are computed from pre-crash
// state and must not perturb copy-on-write snapshot sharing.
func (h *Heap) ImageWord(a Addr) (uint64, bool) {
	s, i := h.word(a)
	if s == nil {
		return 0, false
	}
	return s.imageW[i], true
}

// LiveWord returns the live word at 8-byte-aligned address a as raw
// bits, or ok=false when a is unaligned or unmapped. Like ImageWord it
// observes without charging an access or bumping counters.
func (h *Heap) LiveWord(a Addr) (uint64, bool) {
	s, i := h.word(a)
	if s == nil {
		return 0, false
	}
	return s.liveW[i], true
}

// word locates the 8-byte-aligned address a: its region's state and
// word index, or nil when a is unaligned or unmapped.
func (h *Heap) word(a Addr) (*regionState, int) {
	if a%8 != 0 {
		return nil, 0
	}
	r := h.find(a)
	if r == nil {
		return nil, 0
	}
	return r.state(), int(a-h.lastBase) / 8
}

// StorePersistWord overwrites both the live and image word at
// 8-byte-aligned address a with the raw bits w, reporting whether a was
// mapped. It is the post-crash primitive fault models use to rewrite
// what "actually persisted" (a torn or reordered line, a flipped bit):
// after a crash live equals image, so both copies must move together.
// The owning region's counters, including the word's page version, are
// bumped exactly like a writeback followed by a restart, so
// copy-on-write snapshot sharing and restore memoization stay sound.
func (h *Heap) StorePersistWord(a Addr, w uint64) bool {
	s, i := h.word(a)
	if s == nil {
		return false
	}
	s.liveW[i] = w
	s.imageW[i] = w
	s.liveVer++
	s.imageVer++
	s.pageVer[i/pageWords]++
	h.imageVer++
	return true
}

// F64 is a region of float64 elements.
type F64 struct {
	regionState
	h     *Heap
	name  string
	base  Addr
	live  []float64
	image []float64
}

// AllocF64 allocates a float64 region of n elements with both live and
// image contents zeroed.
func (h *Heap) AllocF64(name string, n int) *F64 {
	r := &F64{
		h:     h,
		name:  name,
		base:  h.reserve(8 * n),
		live:  make([]float64, n),
		image: make([]float64, n),
	}
	r.regionState = newRegionState(r.live, r.image)
	h.addRegion(r)
	return r
}

// Name implements Region.
func (r *F64) Name() string { return r.name }

// Base implements Region.
func (r *F64) Base() Addr { return r.base }

// Bytes implements Region.
func (r *F64) Bytes() int { return 8 * len(r.live) }

// Len returns the number of elements.
func (r *F64) Len() int { return len(r.live) }

// Addr returns the simulated address of element i.
func (r *F64) Addr(i int) Addr { return r.base + Addr(8*i) }

// At performs a simulated load of element i and returns its live value.
func (r *F64) At(i int) float64 {
	r.h.acc.Load(r.Addr(i), 8)
	return r.live[i]
}

// Set performs a simulated store of v into element i.
func (r *F64) Set(i int, v float64) {
	r.h.acc.Store(r.Addr(i), 8)
	r.liveVer++
	r.live[i] = v
}

// LoadRange performs a simulated load of elements [i, i+n) and returns
// the live sub-slice. The caller must treat the result as read-only,
// with one sanctioned exception (the register-blocking pattern): it may
// accumulate into the slice provided it issues a covering StoreRange
// after the mutation completes. A store notification must never precede
// the mutation it covers if other region accesses can intervene —
// an eviction in that window would freeze partial values into the NVM
// image with no later writeback.
func (r *F64) LoadRange(i, n int) []float64 {
	if n > 0 {
		r.h.acc.Load(r.Addr(i), 8*n)
	}
	return r.live[i : i+n]
}

// StoreRange performs a simulated store over elements [i, i+n) and
// returns the live sub-slice for the caller to fill.
func (r *F64) StoreRange(i, n int) []float64 {
	if n > 0 {
		r.h.acc.Store(r.Addr(i), 8*n)
	}
	r.liveVer++
	return r.live[i : i+n]
}

// Image returns the persistent NVM image of the region. Recovery code
// reads this after a crash; it must not be mutated except through
// writebacks and restores.
func (r *F64) Image() []float64 {
	r.imageVer++
	r.epoch++
	r.h.imageVer++
	return r.image
}

// Live returns the live slice without charging a simulated access. It is
// intended for test assertions and result extraction after a run.
func (r *F64) Live() []float64 {
	r.liveVer++
	return r.live
}

// I64 is a region of int64 elements.
type I64 struct {
	regionState
	h     *Heap
	name  string
	base  Addr
	live  []int64
	image []int64
}

// AllocI64 allocates an int64 region of n elements with both live and
// image contents zeroed.
func (h *Heap) AllocI64(name string, n int) *I64 {
	r := &I64{
		h:     h,
		name:  name,
		base:  h.reserve(8 * n),
		live:  make([]int64, n),
		image: make([]int64, n),
	}
	r.regionState = newRegionState(r.live, r.image)
	h.addRegion(r)
	return r
}

// Name implements Region.
func (r *I64) Name() string { return r.name }

// Base implements Region.
func (r *I64) Base() Addr { return r.base }

// Bytes implements Region.
func (r *I64) Bytes() int { return 8 * len(r.live) }

// Len returns the number of elements.
func (r *I64) Len() int { return len(r.live) }

// Addr returns the simulated address of element i.
func (r *I64) Addr(i int) Addr { return r.base + Addr(8*i) }

// At performs a simulated load of element i and returns its live value.
func (r *I64) At(i int) int64 {
	r.h.acc.Load(r.Addr(i), 8)
	return r.live[i]
}

// Set performs a simulated store of v into element i.
func (r *I64) Set(i int, v int64) {
	r.h.acc.Store(r.Addr(i), 8)
	r.liveVer++
	r.live[i] = v
}

// LoadRange performs a simulated load of elements [i, i+n) and returns
// the live sub-slice. The caller must treat the result as read-only.
func (r *I64) LoadRange(i, n int) []int64 {
	if n > 0 {
		r.h.acc.Load(r.Addr(i), 8*n)
	}
	return r.live[i : i+n]
}

// StoreRange performs a simulated store over elements [i, i+n) and
// returns the live sub-slice for the caller to fill.
func (r *I64) StoreRange(i, n int) []int64 {
	if n > 0 {
		r.h.acc.Store(r.Addr(i), 8*n)
	}
	r.liveVer++
	return r.live[i : i+n]
}

// Image returns the persistent NVM image of the region.
func (r *I64) Image() []int64 {
	r.imageVer++
	r.epoch++
	r.h.imageVer++
	return r.image
}

// Live returns the live slice without charging a simulated access.
func (r *I64) Live() []int64 {
	r.liveVer++
	return r.live
}

// String aids debugging.
func (h *Heap) String() string {
	return fmt.Sprintf("mem.Heap{regions=%d, next=%#x}", len(h.regions), h.next)
}

// HeapState is a deep-copy snapshot of every region's contents: the
// live and image words of all regions, each concatenated in address
// order. Region layout (count, order, lengths, addresses) is not
// captured — a snapshot may only be restored onto a heap with the
// identical allocation history, which Restore validates.
type HeapState struct {
	live, image []uint64
	regions     int
}

// Snapshot deep-copies all region contents into st and returns it. A
// nil st allocates a fresh state; a non-nil st reuses its buffers when
// they are large enough, so a pooled state snapshots without
// allocating.
func (h *Heap) Snapshot(st *HeapState) *HeapState {
	if st == nil {
		st = &HeapState{}
	}
	n := h.words()
	st.regions = len(h.regions)
	st.live = slices.Grow(st.live[:0], n)[:n]
	st.image = slices.Grow(st.image[:0], n)[:n]
	off := 0
	for _, r := range h.regions {
		s := r.state()
		copy(st.live[off:], s.liveW)
		copy(st.image[off:], s.imageW)
		off += len(s.liveW)
	}
	return st
}

// Restore overwrites every region's live and image contents from st.
// The heap must have the identical allocation history as the heap st
// was captured from; a region-count or length mismatch panics.
func (h *Heap) Restore(st *HeapState) {
	if n := h.words(); st.regions != len(h.regions) || len(st.live) != n {
		panic(fmt.Sprintf("mem: restore of %d-region %d-word state onto %d-region %d-word heap",
			st.regions, len(st.live), len(h.regions), n))
	}
	off := 0
	for _, r := range h.regions {
		s := r.state()
		copy(s.liveW, st.live[off:])
		copy(s.imageW, st.image[off:])
		off += len(s.liveW)
		s.liveVer++
		s.imageVer++
		s.epoch++
	}
	h.imageVer++
}

// words returns the total number of words in all regions.
func (h *Heap) words() int {
	n := 0
	for _, r := range h.regions {
		n += len(r.state().liveW)
	}
	return n
}

// Equal reports whether two snapshots are bit-identical in both live
// and image contents (floats by bit pattern, so distinct NaN payloads
// count as different, never as spuriously equal).
func (a *HeapState) Equal(b *HeapState) bool {
	return a.regions == b.regions && slices.Equal(a.live, b.live) && slices.Equal(a.image, b.image)
}

// FNV-1a parameters, used for all content hashing in this package.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvMix(h, v uint64) uint64 {
	for s := 0; s < 64; s += 8 {
		h ^= (v >> s) & 0xff
		h *= fnvPrime64
	}
	return h
}

// ImageState is a copy-on-write snapshot of every region's persistent
// image — the only heap state a crashed machine restarts from. Each
// region is held as a table of PageSize pages. Pages and region entries
// are immutable once created and are shared between successive
// snapshots of the same heap: SnapshotImages reuses the previous
// snapshot's region entry when the region's image version has not
// moved, and otherwise reuses each page whose version has not moved, so
// capturing a crash point costs time and memory in proportion to the
// pages that persisted since the last capture.
type ImageState struct {
	src     *Heap
	regions []*imageRegion
	hash    uint64
}

// imageRegion is one region's page table. epoch and ver are the
// region's image epoch and image version at capture time; hash is the
// FNV-1a hash of the page hashes.
type imageRegion struct {
	epoch uint64
	ver   uint64
	pages []*imagePage
	hash  uint64
}

// imagePage is one page of image words (the last page of a region may
// be short). ver is the page version at capture time; hash is the
// FNV-1a hash of the words.
type imagePage struct {
	words []uint64
	ver   uint64
	hash  uint64
}

// SnapshotImages captures the persistent images of all regions. If prev
// is a snapshot of the same heap, a region whose image version is
// unchanged since prev shares prev's entry, and within a changed region
// whose epoch is unchanged, every page whose version is unchanged
// shares prev's page (the counters are bumped by every image-mutating
// path, so equal counters prove equal contents). The remaining pages
// are copied and hashed into one slab per capture.
func (h *Heap) SnapshotImages(prev *ImageState) *ImageState {
	st := &ImageState{src: h, regions: make([]*imageRegion, len(h.regions))}
	if prev != nil && (prev.src != h || len(prev.regions) > len(h.regions)) {
		prev = nil
	}
	// Pass 1: share what provably did not change; count what did.
	nPages, nWords := 0, 0
	fresh := make([]bool, len(h.regions))
	for i, r := range h.regions {
		s := r.state()
		var p *imageRegion
		if prev != nil && i < len(prev.regions) {
			p = prev.regions[i]
			if p.ver == s.imageVer {
				st.regions[i] = p
				continue
			}
			if p.epoch != s.epoch {
				p = nil
			}
		}
		e := &imageRegion{epoch: s.epoch, ver: s.imageVer, pages: make([]*imagePage, len(s.pageVer))}
		for j, v := range s.pageVer {
			if p != nil && p.pages[j].ver == v {
				e.pages[j] = p.pages[j]
				continue
			}
			nPages++
			nWords += min(pageWords, len(s.imageW)-j*pageWords)
		}
		st.regions[i] = e
		fresh[i] = true
	}
	// Pass 2: copy and hash the unshared pages.
	slab := make([]uint64, nWords)
	pages := make([]imagePage, nPages)
	hash := uint64(fnvOffset64)
	for i, e := range st.regions {
		if fresh[i] {
			s := h.regions[i].state()
			e.hash = fnvOffset64
			for j, pg := range e.pages {
				if pg == nil {
					src := s.imageW[j*pageWords : min((j+1)*pageWords, len(s.imageW))]
					pg, pages = &pages[0], pages[1:]
					pg.words, slab = slab[:len(src):len(src)], slab[len(src):]
					copy(pg.words, src)
					pg.ver = s.pageVer[j]
					pg.hash = fnvOffset64
					for _, w := range pg.words {
						pg.hash = fnvMix(pg.hash, w)
					}
					e.pages[j] = pg
				}
				e.hash = fnvMix(e.hash, pg.hash)
			}
		}
		hash = fnvMix(hash, e.hash)
	}
	st.hash = hash
	return st
}

// imgMark records which ImageState entry a region was last restored
// from, plus the version counters observed immediately after that
// restore. A later restore from the same (immutable) entry with unmoved
// counters is a provable no-op and is skipped.
type imgMark struct {
	entry    *imageRegion
	liveVer  uint64
	imageVer uint64
}

// RestoreImages overwrites every region's live AND image contents from
// st, the post-crash restart state: it folds RestartFromImage into the
// restore, leaving live == image == the snapshot. The heap must have
// the identical allocation history as the heap st was captured from —
// which may be a different heap instance (a fork machine built by
// re-running the same construction code); a region count or length
// mismatch panics.
//
// Restores are memoized per region: restoring the same snapshot onto an
// untouched region costs two counter compares instead of two copies,
// which makes replaying many crash points against one shared prefix
// nearly free when consecutive points share image state.
func (h *Heap) RestoreImages(st *ImageState) {
	if len(st.regions) != len(h.regions) {
		panic(fmt.Sprintf("mem: restore of %d-region image state onto %d-region heap",
			len(st.regions), len(h.regions)))
	}
	if len(h.imgMarks) != len(h.regions) {
		h.imgMarks = make([]imgMark, len(h.regions))
	}
	for i, e := range st.regions {
		r := h.regions[i]
		s := r.state()
		mk := &h.imgMarks[i]
		if mk.entry == e && mk.liveVer == s.liveVer && mk.imageVer == s.imageVer {
			continue
		}
		if len(e.pages) != len(s.pageVer) ||
			(len(e.pages) > 0 && (len(e.pages)-1)*pageWords+len(e.pages[len(e.pages)-1].words) != len(s.imageW)) {
			panic(fmt.Sprintf("mem: image restore length mismatch on %q", r.Name()))
		}
		for j, pg := range e.pages {
			copy(s.liveW[j*pageWords:], pg.words)
			copy(s.imageW[j*pageWords:], pg.words)
		}
		s.liveVer++
		s.imageVer++
		s.epoch++
		*mk = imgMark{entry: e, liveVer: s.liveVer, imageVer: s.imageVer}
	}
	h.imageVer++
}

// Hash returns an FNV-1a hash over the per-region content hashes, a
// cheap prefilter for Equal-based deduplication.
func (a *ImageState) Hash() uint64 { return a.hash }

// Equal reports whether two image snapshots are bit-identical. Shared
// entries and pages, and same-heap entries and pages with unmoved
// counters, are proven equal without touching the data; everything
// else falls back to a hash compare and then a content compare (floats
// by bit pattern), page by page.
func (a *ImageState) Equal(b *ImageState) bool {
	if a == b {
		return true
	}
	if len(a.regions) != len(b.regions) || a.hash != b.hash {
		return false
	}
	sameSrc := a.src == b.src
	for i, ra := range a.regions {
		rb := b.regions[i]
		if ra == rb || (sameSrc && ra.ver == rb.ver) {
			continue
		}
		if ra.hash != rb.hash || len(ra.pages) != len(rb.pages) {
			return false
		}
		sameEpoch := sameSrc && ra.epoch == rb.epoch
		for j, pa := range ra.pages {
			pb := rb.pages[j]
			if pa == pb || (sameEpoch && pa.ver == pb.ver) {
				continue
			}
			if pa.hash != pb.hash || !slices.Equal(pa.words, pb.words) {
				return false
			}
		}
	}
	return true
}
