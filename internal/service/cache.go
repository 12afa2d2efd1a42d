// Package service turns the scenario layer into a long-running system:
// a bounded worker-pool job queue executing specs asynchronously, a
// content-addressed result cache memoizing runs by spec identity, and
// an HTTP API (cmd/occamy-served) accepting the same strict-JSON spec
// files the CLI runs. It is the first step of the ROADMAP north star —
// from one-shot CLI invocations toward a service that absorbs repeat
// traffic: every run is deterministic in its spec, so equal specs need
// exactly one simulation.
package service

import (
	"bytes"
	"container/list"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Cache is a content-addressed result cache: canonical result bytes
// keyed by spec fingerprint (scenario.Spec.Fingerprint — canonical
// resolved spec bytes + package version), evicted LRU under a byte
// budget, optionally persisted to disk so a restarted server keeps its
// memoized results.
type Cache struct {
	mu       sync.Mutex
	budget   int64
	used     int64
	dir      string // "" = memory only
	entries  map[string]*list.Element
	lru      *list.List // front = most recently used
	hits     int64
	misses   int64
	evicted  int64
	restored int64
}

type cacheEntry struct {
	key  string
	data []byte
}

// NewCache builds a cache with the given byte budget (<= 0 selects the
// 256 MB default). dir, when non-empty, enables disk persistence:
// entries are written as <dir>/<fingerprint-hex>.json (the fingerprint
// on a header line, the document after it) and reloaded lazily on miss,
// so the budget bounds memory while disk keeps everything.
func NewCache(budget int64, dir string) (*Cache, error) {
	if budget <= 0 {
		budget = 256 << 20
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("service: cache dir: %w", err)
		}
	}
	return &Cache{
		budget:  budget,
		dir:     dir,
		entries: make(map[string]*list.Element),
		lru:     list.New(),
	}, nil
}

// fileFor maps a fingerprint ("sha256:<hex>") to its persistence path.
func (c *Cache) fileFor(key string) string {
	name := strings.TrimPrefix(key, "sha256:")
	return filepath.Join(c.dir, name+".json")
}

// Get returns the cached result bytes for the fingerprint, or nil. A
// memory miss falls back to the persistence directory, re-admitting the
// entry under the byte budget when the file was written for this key.
func (c *Cache) Get(key string) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		c.hits++
		return el.Value.(*cacheEntry).data
	}
	if c.dir != "" {
		if file, err := os.ReadFile(c.fileFor(key)); err == nil {
			// Writes are atomic (temp + rename), but a foreign, damaged or
			// misplaced file must not become a served "result": re-admit
			// only a JSON document filed under this key, drop anything else.
			if data, ok := filedUnder(file, key); ok {
				c.restored++
				c.hits++
				c.admit(key, data)
				return data
			}
			_ = os.Remove(c.fileFor(key))
		}
	}
	c.misses++
	return nil
}

// filedUnder splits a persisted file into its header line and document,
// and reports whether the header is key and the document canonical. The
// header is what ties a file to its name whatever the document's schema:
// run results embed their fingerprint, sweep tables do not. Canonical
// means a fixed point of encoding/json's compaction plus the newline:
// the form Encode writes, and the only one a GET may splice into a job
// view unexamined (WriteJobView), so anything else is damage. This is
// the one pass over a restored document; no GET repeats it.
func filedUnder(file []byte, key string) ([]byte, bool) {
	head, data, ok := bytes.Cut(file, []byte{'\n'})
	if !ok || string(head) != key {
		return nil, false
	}
	canon, err := json.Marshal(json.RawMessage(data))
	return data, err == nil && bytes.Equal(append(canon, '\n'), data)
}

// Put stores the result bytes under the fingerprint, evicting LRU
// entries from memory as needed, and persists them when a directory is
// configured. Entries larger than the whole budget are persisted but
// not held in memory.
func (c *Cache) Put(key string, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dir != "" {
		// Best-effort persistence: a full disk degrades to memory-only.
		// Temp + rename so a crash mid-write can never leave a truncated
		// file where a restart's Get would find it.
		tmp := c.fileFor(key) + ".tmp"
		if err := writeFiled(tmp, key, data); err == nil {
			_ = os.Rename(tmp, c.fileFor(key))
		} else {
			_ = os.Remove(tmp)
		}
	}
	if el, ok := c.entries[key]; ok {
		c.used += int64(len(data)) - int64(len(el.Value.(*cacheEntry).data))
		el.Value.(*cacheEntry).data = data
		c.lru.MoveToFront(el)
		c.evict()
		return
	}
	c.admit(key, data)
}

// writeFiled writes the key as a header line and the document after it,
// the layout filedUnder checks on the way back in.
func writeFiled(path, key string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.WriteString(key + "\n")
	if err == nil {
		_, err = f.Write(data)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// admit inserts under the budget; the caller holds the lock.
func (c *Cache) admit(key string, data []byte) {
	if int64(len(data)) > c.budget {
		return
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, data: data})
	c.used += int64(len(data))
	c.evict()
}

// evict drops LRU entries until the budget holds; the caller holds the
// lock. Persisted copies survive eviction, so a later Get can restore.
func (c *Cache) evict() {
	for c.used > c.budget {
		el := c.lru.Back()
		if el == nil {
			return
		}
		e := el.Value.(*cacheEntry)
		c.lru.Remove(el)
		delete(c.entries, e.key)
		c.used -= int64(len(e.data))
		c.evicted++
	}
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	Entries  int   `json:"entries"`
	Bytes    int64 `json:"bytes"`
	Budget   int64 `json:"budget"`
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
	Evicted  int64 `json:"evicted"`
	Restored int64 `json:"restored"`
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries: len(c.entries), Bytes: c.used, Budget: c.budget,
		Hits: c.hits, Misses: c.misses, Evicted: c.evicted, Restored: c.restored,
	}
}
