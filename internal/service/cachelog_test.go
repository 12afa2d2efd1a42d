package service

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// Disk-tier faults of the cache's log: a torn tail, a failed append and
// a record under the wrong header each cost at most a recomputation,
// never a served wrong answer or a lost earlier record.

// logDoc is a canonical document of a fixed length, distinct per key.
func logDoc(key string) []byte {
	return []byte(`{"key":"` + key + `"}` + "\n")
}

func openCache(t *testing.T, budget int64, dir string) *Cache {
	t.Helper()
	c, err := NewCache(budget, dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// A log cut mid-record (a kill -9 during an append) is truncated to its
// last whole record at open; every earlier record restores, and the
// next append lands where the torn one began.
func TestCacheLogTornTail(t *testing.T) {
	dir := t.TempDir()
	keys := []string{"sha256:aa", "sha256:bb", "sha256:cc"}
	c := openCache(t, 1<<20, dir)
	var ends []int64
	for _, k := range keys {
		c.Put(k, logDoc(k))
		ends = append(ends, c.Stats().LogBytes)
	}
	c.Close()
	log := filepath.Join(dir, "results.log")
	for _, cut := range []int64{ends[1] + 3, ends[1] + 15, ends[2] - 1} { // in the header, in the document, one byte short
		if err := os.Truncate(log, cut); err != nil {
			t.Fatal(err)
		}
		r := openCache(t, 1<<20, dir)
		if fi, err := os.Stat(log); err != nil || fi.Size() != ends[1] {
			t.Fatalf("cut at %d: log not truncated to %d: %v", cut, ends[1], fi)
		}
		if st := r.Stats(); st.Persisted != 2 || st.LogBytes != ends[1] {
			t.Fatalf("cut at %d: stats %+v, want 2 records in %d bytes", cut, st, ends[1])
		}
		for _, k := range keys[:2] {
			if got := r.Get(k); string(got) != string(logDoc(k)) {
				t.Errorf("cut at %d: %s restored %q", cut, k, got)
			}
		}
		if got := r.Get(keys[2]); got != nil {
			t.Errorf("cut at %d: torn record served: %q", cut, got)
		}
		// The next append lands cleanly after the cut.
		r.Put(keys[2], logDoc(keys[2]))
		r.Close()
		again := openCache(t, 1<<20, dir)
		if st := again.Stats(); st.Persisted != 3 || st.LogBytes != ends[2] {
			t.Fatalf("cut at %d: after the next append: %+v", cut, st)
		}
		for _, k := range keys {
			if got := again.Get(k); string(got) != string(logDoc(k)) {
				t.Errorf("cut at %d: %s after the next append: %q", cut, k, got)
			}
		}
		again.Close()
	}
}

// A failed append keeps the result in memory and indexes nothing; the
// next good append is restorable, and the failed one is not.
func TestCacheLogFailedAppend(t *testing.T) {
	dir := t.TempDir()
	c := openCache(t, 1<<20, dir)
	c.Put("sha256:aa", logDoc("sha256:aa"))
	before := c.Stats()
	log := filepath.Join(dir, "results.log")
	rw := c.log
	ro, err := os.Open(log)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	c.log = ro
	c.Put("sha256:bb", logDoc("sha256:bb"))
	if got := c.Get("sha256:bb"); string(got) != string(logDoc("sha256:bb")) {
		t.Errorf("result of a failed append not held in memory: %q", got)
	}
	if st := c.Stats(); st.Persisted != before.Persisted || st.LogBytes != before.LogBytes {
		t.Errorf("failed append indexed: %+v, before %+v", st, before)
	}
	c.log = rw
	c.Put("sha256:cc", logDoc("sha256:cc"))
	c.Close()
	fresh := openCache(t, 1<<20, dir)
	for k, want := range map[string][]byte{"sha256:aa": logDoc("sha256:aa"), "sha256:bb": nil, "sha256:cc": logDoc("sha256:cc")} {
		if got := fresh.Get(k); string(got) != string(want) {
			t.Errorf("after the failed append, %s restored %q, want %q", k, got, want)
		}
	}
	if st := fresh.Stats(); st.Persisted != 2 || st.Restored != 2 {
		t.Errorf("restart after a failed append: %+v", st)
	}
}

// A record whose header names another key, or another length, is never
// served: the Get is a miss and the record is forgotten.
func TestCacheLogWrongHeader(t *testing.T) {
	for _, tc := range []struct{ name, header string }{
		{"another key", "sha256:aa 20\n"},
		{"another length", "sha256:bb 21\n"},
	} {
		dir := t.TempDir()
		c := openCache(t, 1, dir) // nothing fits in memory: every Get reads the log
		c.Put("sha256:aa", logDoc("sha256:aa"))
		c.Put("sha256:bb", logDoc("sha256:bb"))
		if n := len(logDoc("sha256:bb")); header("sha256:bb", int64(n)) != "sha256:bb 20\n" {
			t.Fatalf("precondition: document length %d, want 20", n)
		}
		// Overwrite bb's header, the second record's first line.
		f, err := os.OpenFile(filepath.Join(dir, "results.log"), os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte(tc.header), c.Stats().LogBytes/2); err != nil {
			t.Fatal(err)
		}
		f.Close()
		if got := c.Get("sha256:bb"); got != nil {
			t.Errorf("%s: record served: %q", tc.name, got)
		}
		if st := c.Stats(); st.Misses != 1 || st.Hits != 0 || st.Restored != 0 || st.Persisted != 1 {
			t.Errorf("%s: stats after the rejection: %+v", tc.name, st)
		}
		if got := c.Get("sha256:aa"); string(got) != string(logDoc("sha256:aa")) {
			t.Errorf("%s: the intact record read %q", tc.name, got)
		}
	}
}

// A key a header cannot carry stays memory-only, and a closed cache
// acts as memory-only without panicking.
func TestCacheLogMemoryOnlyCases(t *testing.T) {
	dir := t.TempDir()
	c := openCache(t, 1<<20, dir)
	for _, k := range []string{"a b", "a\nb", string(make([]byte, maxKey+1))} {
		c.Put(k, logDoc("x"))
		if got := c.Get(k); string(got) != string(logDoc("x")) {
			t.Errorf("key %.10q not served from memory: %q", k, got)
		}
	}
	if st := c.Stats(); st.Persisted != 0 || st.LogBytes != 0 {
		t.Errorf("a key no header can carry was persisted: %+v", st)
	}
	c.Put("sha256:aa", logDoc("sha256:aa"))
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c.Put("sha256:bb", logDoc("sha256:bb"))
	small := openCache(t, 1, dir) // a second cache: Gets read the log
	small.Put("sha256:cc", logDoc("sha256:cc"))
	small.Close()
	if got := small.Get("sha256:cc"); got != nil {
		t.Errorf("closed cache served from its log: %q", got)
	}
	if st := c.Stats(); st.Persisted != 1 {
		t.Errorf("a Put after Close was persisted: %+v", st)
	}
}

// Puts and log reads from several goroutines at once serialize on the
// cache: every record lands whole and restores after a restart.
func TestCacheLogConcurrent(t *testing.T) {
	dir := t.TempDir()
	c := openCache(t, 64, dir) // about two documents fit: most Gets read the log
	key := func(g, i int) string { return fmt.Sprintf("sha256:%d%02d", g, i) }
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c.Put(key(g, i), logDoc(key(g, i)))
				if got := c.Get(key(g, i/2)); string(got) != string(logDoc(key(g, i/2))) {
					t.Errorf("%s read back %q", key(g, i/2), got)
				}
			}
		}()
	}
	wg.Wait()
	c.Close()
	fresh := openCache(t, 1<<20, dir)
	if st := fresh.Stats(); st.Persisted != 200 || st.LogBytes != c.Stats().LogBytes {
		t.Fatalf("after concurrent puts: %+v, want 200 records", st)
	}
	for g := 0; g < 4; g++ {
		for i := 0; i < 50; i++ {
			if string(fresh.Get(key(g, i))) != string(logDoc(key(g, i))) {
				t.Errorf("%s not restored", key(g, i))
			}
		}
	}
}

// BenchmarkCachePut times Put of a 200 KB document under fresh keys, in
// memory and with a cache directory.
func BenchmarkCachePut(b *testing.B) {
	doc := make([]byte, 200<<10)
	for i := range doc {
		doc[i] = 'a' + byte(i%26)
	}
	for _, mode := range []string{"mem", "dir"} {
		b.Run(mode, func(b *testing.B) {
			dir := ""
			if mode == "dir" {
				dir = b.TempDir()
			}
			c, err := NewCache(64<<20, dir)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			b.SetBytes(int64(len(doc)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Put(fmt.Sprintf("sha256:%064d", i), doc)
			}
		})
	}
}
