package adccd

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"adcc/pkg/adcc"
)

// store persists service state under one directory:
//
//	<dir>/jobs/<id>/job.json        adcc.JobInfo status document
//	<dir>/jobs/<id>/shards/*.json   one checkpointed CampaignCell each
//	<dir>/cache/<cache-key>.json    finished adcc-report/v1 envelopes
//	<dir>/cache/<cache-key>.adccs   columnar result store artifacts
//
// The .adccs artifact rides along with its envelope: both are keyed by
// the spec's content address, and eviction removes them as a pair, so a
// servable report always answers the query endpoint too (unless the job
// was resumed — restored shards carry no per-injection rows).
//
// With an empty dir the store is ephemeral: the cache lives in memory
// and jobs/shards are not persisted at all (nothing to resume).
type store struct {
	dir string

	mu        sync.Mutex
	mem       map[string][]byte // ephemeral result cache
	memStores map[string][]byte // ephemeral store artifacts
	entries   int               // cache size bound; <= 0 unbounded
}

func newStore(dir string, cacheEntries int) (*store, error) {
	s := &store{dir: dir, entries: cacheEntries}
	if dir == "" {
		s.mem = map[string][]byte{}
		s.memStores = map[string][]byte{}
		return s, nil
	}
	for _, sub := range []string{"jobs", "cache"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *store) ephemeral() bool { return s.dir == "" }

// cacheGet looks a finished report up by its content address and, on a
// hit, marks the entry recently used.
func (s *store) cacheGet(key string) ([]byte, bool) {
	if s.ephemeral() {
		s.mu.Lock()
		defer s.mu.Unlock()
		b, ok := s.mem[key]
		return b, ok
	}
	path := s.cachePath(key)
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	now := time.Now()
	_ = os.Chtimes(path, now, now) // LRU touch; best effort
	return b, true
}

// cachePut stores a finished report under its content address and
// evicts least-recently-used entries past the configured bound.
func (s *store) cachePut(key string, b []byte) error {
	if s.ephemeral() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.mem[key] = b
		// The ephemeral map has no useful recency order; bound it by
		// dropping arbitrary entries, which only tests exercise. A
		// dropped envelope takes its store artifact with it.
		for s.entries > 0 && len(s.mem) > s.entries {
			for k := range s.mem {
				if k != key {
					delete(s.mem, k)
					delete(s.memStores, k)
					break
				}
			}
		}
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := writeFileAtomic(s.cachePath(key), b); err != nil {
		return err
	}
	return s.evictLocked()
}

func (s *store) cachePath(key string) string {
	return filepath.Join(s.dir, "cache", key+".json")
}

func (s *store) storePath(key string) string {
	return filepath.Join(s.dir, "cache", key+".adccs")
}

// storeTempPath is where a running job writes its columnar store before
// adoption: next to the cache (same filesystem, so the adopting rename
// is atomic) when persistent, under the OS temp directory when
// ephemeral. The job ID keeps concurrent jobs apart.
func (s *store) storeTempPath(jobID string) string {
	if s.ephemeral() {
		return filepath.Join(os.TempDir(), "adccd-"+jobID+".adccs")
	}
	return filepath.Join(s.dir, "cache", ".tmp-"+jobID+".adccs")
}

// storeAdopt moves a finished job's temp store artifact under its
// content address (or into memory when ephemeral), making it servable.
func (s *store) storeAdopt(key, tmp string) error {
	if s.ephemeral() {
		b, err := os.ReadFile(tmp)
		if err != nil {
			return err
		}
		_ = os.Remove(tmp)
		s.mu.Lock()
		defer s.mu.Unlock()
		// Keep the pairing invariant: an artifact without its envelope
		// (dropped by the size bound) is unreachable, so don't keep it.
		if _, ok := s.mem[key]; !ok {
			return nil
		}
		s.memStores[key] = b
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return os.Rename(tmp, s.storePath(key))
}

// storeDiscard removes a temp store artifact of a job that failed or
// was interrupted (a partial store has no valid footer to serve).
func (s *store) storeDiscard(tmp string) {
	_ = os.Remove(tmp)
}

// storeGet returns the columnar store artifact for a content address,
// refreshing the paired envelope's LRU stamp on a hit.
func (s *store) storeGet(key string) ([]byte, bool) {
	if s.ephemeral() {
		s.mu.Lock()
		defer s.mu.Unlock()
		b, ok := s.memStores[key]
		return b, ok
	}
	b, err := os.ReadFile(s.storePath(key))
	if err != nil {
		return nil, false
	}
	now := time.Now()
	_ = os.Chtimes(s.cachePath(key), now, now) // keep the pair alive; best effort
	return b, true
}

// evictLocked removes the oldest cache entries (by the envelope's
// mtime, the last-used stamp) until the entry bound holds. An entry is
// the envelope plus its store artifact; they are evicted together.
func (s *store) evictLocked() error {
	if s.entries <= 0 {
		return nil
	}
	dents, err := os.ReadDir(filepath.Join(s.dir, "cache"))
	if err != nil {
		return err
	}
	type ent struct {
		name string
		mod  time.Time
	}
	var ents []ent
	for _, d := range dents {
		if !strings.HasSuffix(d.Name(), ".json") {
			continue // artifacts and temp files follow their envelope
		}
		info, err := d.Info()
		if err != nil {
			continue
		}
		ents = append(ents, ent{d.Name(), info.ModTime()})
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].mod.Before(ents[j].mod) })
	for i := 0; i < len(ents)-s.entries; i++ {
		_ = os.Remove(filepath.Join(s.dir, "cache", ents[i].name))
		_ = os.Remove(filepath.Join(s.dir, "cache",
			strings.TrimSuffix(ents[i].name, ".json")+".adccs"))
	}
	return nil
}

// putJob persists a job's status document (best effort: a lost write
// costs a resume, not correctness).
func (s *store) putJob(info adcc.JobInfo) {
	if s.ephemeral() {
		return
	}
	dir := filepath.Join(s.dir, "jobs", info.ID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	b, err := json.MarshalIndent(info, "", "  ")
	if err != nil {
		return
	}
	_ = writeFileAtomic(filepath.Join(dir, "job.json"), append(b, '\n'))
}

// putShard persists one checkpointed cell of a running job.
func (s *store) putShard(jobID string, c adcc.CampaignCell) {
	if s.ephemeral() {
		return
	}
	dir := filepath.Join(s.dir, "jobs", jobID, "shards")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	b, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return
	}
	_ = writeFileAtomic(filepath.Join(dir, shardFile(c.Key())), append(b, '\n'))
}

// dropShards deletes a finished job's checkpoints (its report is in the
// cache; the shards have nothing left to resume).
func (s *store) dropShards(jobID string) {
	if s.ephemeral() {
		return
	}
	_ = os.RemoveAll(filepath.Join(s.dir, "jobs", jobID, "shards"))
}

// shardFile maps a cell key to a stable filename: the key sanitized for
// the filesystem plus an FNV tag so sanitization collisions (for
// example "/" and "-" both mapping to "-") cannot alias two cells.
func shardFile(cellKey string) string {
	h := fnv.New32a()
	h.Write([]byte(cellKey))
	safe := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.':
			return r
		default:
			return '_'
		}
	}, cellKey)
	return fmt.Sprintf("%s-%08x.json", safe, h.Sum32())
}

// loadedJob is one persisted job with its shard checkpoints.
type loadedJob struct {
	info   adcc.JobInfo
	shards map[string]adcc.CampaignCell
}

// loadJobs reads every persisted job. A job document or shard that
// cannot be read or decoded is not fatal (a lost shard is recomputed),
// but it is never dropped silently: each one is reported to skip with
// its path and error. Leftover "*.tmp" files from an interrupted
// writeFileAtomic are ignored.
func (s *store) loadJobs(skip func(path string, err error)) ([]loadedJob, error) {
	if s.ephemeral() {
		return nil, nil
	}
	dents, err := os.ReadDir(filepath.Join(s.dir, "jobs"))
	if err != nil {
		return nil, err
	}
	var out []loadedJob
	for _, d := range dents {
		if !d.IsDir() {
			continue
		}
		path := filepath.Join(s.dir, "jobs", d.Name(), "job.json")
		var info adcc.JobInfo
		if err := readJSON(path, &info); err != nil {
			skip(path, err)
			continue
		}
		if info.ID == "" {
			skip(path, errors.New("job document has no id"))
			continue
		}
		lj := loadedJob{info: info, shards: map[string]adcc.CampaignCell{}}
		shardDir := filepath.Join(s.dir, "jobs", d.Name(), "shards")
		sdents, err := os.ReadDir(shardDir)
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			skip(shardDir, err)
		}
		for _, sd := range sdents {
			if strings.HasSuffix(sd.Name(), ".tmp") {
				continue
			}
			path := filepath.Join(shardDir, sd.Name())
			var c adcc.CampaignCell
			if err := readJSON(path, &c); err != nil {
				skip(path, err)
				continue
			}
			lj.shards[c.Key()] = c
		}
		out = append(out, lj)
	}
	return out, nil
}

// readJSON decodes the JSON file at path into v.
func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// writeFileAtomic writes b to path via a rename so readers (and a
// crash mid-write) never observe a torn file.
func writeFileAtomic(path string, b []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
