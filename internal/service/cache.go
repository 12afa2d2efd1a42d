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
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
)

// Cache is a content-addressed result cache: canonical result bytes
// keyed by spec fingerprint (scenario.Spec.Fingerprint — canonical
// resolved spec bytes + package version), evicted LRU under a byte
// budget, optionally persisted to an append-only log so a restarted
// server keeps its memoized results. One process owns a log.
type Cache struct {
	mu       sync.Mutex
	budget   int64
	used     int64
	log      *os.File // nil = memory only
	end      int64    // the log's logical end: where the next record goes
	index    map[string]logRecord
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

type logRecord struct{ off, size int64 } // where a record starts, and its header and document bytes

const maxKey = 232 // longest persisted key: its header fits the scan's window

// NewCache builds a cache with the given byte budget (<= 0 selects the
// 256 MB default). dir, when non-empty, enables disk persistence: Put
// appends a record, a line "<key> <n>" and the n document bytes, to
// <dir>/results.log, and a memory miss reloads it, so the budget bounds
// memory while disk keeps everything. Opening reads only the headers and
// cuts the log at the first bad one, a torn append; other files in dir
// (earlier versions wrote one per result) are ignored.
func NewCache(budget int64, dir string) (*Cache, error) {
	if budget <= 0 {
		budget = 256 << 20
	}
	c := &Cache{budget: budget, entries: make(map[string]*list.Element), lru: list.New()}
	if dir != "" {
		if err := c.openLog(dir); err != nil {
			c.Close()
			return nil, fmt.Errorf("service: cache dir: %w", err)
		}
	}
	return c, nil
}

// openLog opens or creates dir's log, indexes it and cuts a torn tail.
func (c *Cache) openLog(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(dir, "results.log"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	c.log, c.index = f, make(map[string]logRecord)
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return err
	}
	var win [maxKey + 24]byte
	for c.end < size {
		w, _ := f.ReadAt(win[:], c.end)
		line, _, ok := bytes.Cut(win[:w], []byte{'\n'})
		key, num, ok2 := strings.Cut(string(line), " ")
		n, err := strconv.ParseInt(num, 10, 64)
		doc := c.end + int64(len(line)) + 1
		if !ok || !ok2 || err != nil || n < 0 || n > size-doc {
			return f.Truncate(c.end)
		}
		c.index[key] = logRecord{c.end, doc + n - c.end}
		c.end = doc + n
	}
	return nil
}

// Close closes the log; the cache then acts as memory-only.
func (c *Cache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.log == nil {
		return nil
	}
	return c.log.Close()
}

// Get returns the cached result bytes for the fingerprint, or nil. A
// memory miss for a persisted key reads its log record, re-admitting the
// entry under the byte budget when the record was written for this key;
// a key never persisted misses without touching the disk.
func (c *Cache) Get(key string) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		c.hits++
		return el.Value.(*cacheEntry).data
	}
	if rec, ok := c.index[key]; ok {
		// A damaged record, or bytes another writer put in its place,
		// must not become a served "result": re-admit only a document
		// filed under this key, and forget the record otherwise.
		buf := make([]byte, rec.size)
		if _, err := c.log.ReadAt(buf, rec.off); err == nil {
			if data, ok := filedUnder(buf, key); ok {
				c.restored++
				c.hits++
				c.admit(key, data)
				return data
			}
		}
		delete(c.index, key)
	}
	c.misses++
	return nil
}

// header is the first line of key's record for an n-byte document.
func header(key string, n int64) string {
	return key + " " + strconv.FormatInt(n, 10) + "\n"
}

// filedUnder splits a log record into its header line and document, and
// reports whether the header names key and the document's length and
// the document is canonical. The header is what ties a record to its
// key whatever the document's schema: run results embed their
// fingerprint, sweep tables do not. Canonical means a fixed point of
// encoding/json's compaction plus the newline: the form Encode writes,
// and the only one a GET may splice into a job view unexamined
// (WriteJobView), so anything else is damage. This is the one pass over
// a restored document; no GET repeats it.
func filedUnder(rec []byte, key string) ([]byte, bool) {
	head, data, ok := bytes.Cut(rec, []byte{'\n'})
	if !ok || string(rec[:len(head)+1]) != header(key, int64(len(data))) {
		return nil, false
	}
	canon, err := json.Marshal(json.RawMessage(data))
	return data, err == nil && bytes.Equal(append(canon, '\n'), data)
}

// Put stores the result bytes under the fingerprint, evicting LRU
// entries from memory as needed, and appends them to the log when one
// is open. Entries larger than the whole budget are persisted but not
// held in memory.
func (c *Cache) Put(key string, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.log != nil && len(key) <= maxKey && !strings.ContainsAny(key, " \n") {
		// Best-effort persistence: a failed write indexes nothing and
		// leaves the end in place, so the next append overwrites its
		// bytes and a full disk degrades to memory-only.
		hdr := header(key, int64(len(data)))
		if _, err := c.log.WriteAt([]byte(hdr), c.end); err == nil {
			if _, err := c.log.WriteAt(data, c.end+int64(len(hdr))); err == nil {
				c.index[key] = logRecord{c.end, int64(len(hdr) + len(data))}
				c.end += int64(len(hdr) + len(data))
			}
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

// CacheStats is a point-in-time snapshot of cache effectiveness;
// Persisted counts the log's indexed records and LogBytes its length.
type CacheStats struct {
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	Budget    int64 `json:"budget"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evicted   int64 `json:"evicted"`
	Restored  int64 `json:"restored"`
	Persisted int   `json:"persisted"`
	LogBytes  int64 `json:"log_bytes"`
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries: len(c.entries), Bytes: c.used, Budget: c.budget,
		Hits: c.hits, Misses: c.misses, Evicted: c.evicted, Restored: c.restored,
		Persisted: len(c.index), LogBytes: c.end,
	}
}
