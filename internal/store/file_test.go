// File-backend specifics beyond the shared contract: persistence
// across reopen, cross-instance visibility (the fleet-cache claim),
// LRU eviction and TTL on the memory backend, and the typed adapters'
// round-trips.
package store

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/wire"
	"repro/placer"
)

func TestFilePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	a, err := NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Put("k", []byte("survives"), 0); err != nil {
		t.Fatal(err)
	}
	a.Close()
	b, err := NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := b.Get("k")
	if err != nil || !ok || string(got) != "survives" {
		t.Fatalf("after reopen: %q ok=%v err=%v", got, ok, err)
	}
}

// TestFileCrossInstance is the fleet-cache property at the blob
// level: two Store handles on one directory — two daemon processes in
// miniature — see each other's writes, deletes, and TTLs.
func TestFileCrossInstance(t *testing.T) {
	dir := t.TempDir()
	a, err := NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Put("shared", []byte("from-a"), 0); err != nil {
		t.Fatal(err)
	}
	got, ok, err := b.Get("shared")
	if err != nil || !ok || string(got) != "from-a" {
		t.Fatalf("instance b misses instance a's write: %q ok=%v err=%v", got, ok, err)
	}
	// TTL written by a is honored by b.
	if err := a.Put("fleeting", []byte("x"), 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	if _, ok, _ := b.Get("fleeting"); ok {
		t.Fatal("instance b served an entry past the TTL instance a wrote")
	}
	if err := b.Delete("shared"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := a.Get("shared"); ok {
		t.Fatal("instance a still hits after instance b's delete")
	}
}

// TestFileIgnoresTempFiles pins the atomicity mechanism: in-progress
// dot-prefixed temp files are invisible to Keys/Stats and unreadable
// as keys.
func TestFileIgnoresTempFiles(t *testing.T) {
	dir := t.TempDir()
	f, err := NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ".tmp-abandoned"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := f.Put("real", []byte("v"), 0); err != nil {
		t.Fatal(err)
	}
	keys, err := f.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != "real" {
		t.Fatalf("Keys sees temp files: %v", keys)
	}
	st, _ := f.Stats()
	if st.Entries != 1 {
		t.Fatalf("Stats counts temp files: %+v", st)
	}
}

func TestMemoryLRUEviction(t *testing.T) {
	m := NewMemory(2)
	for _, k := range []string{"a", "b", "c"} {
		if err := m.Put(k, []byte(k), 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok, _ := m.Get("a"); ok {
		t.Fatal("oldest entry survived past capacity")
	}
	for _, k := range []string{"b", "c"} {
		if _, ok, _ := m.Get(k); !ok {
			t.Fatalf("recent entry %q evicted", k)
		}
	}
	// Touch "b", insert "d": "c" is now the LRU victim.
	if _, ok, _ := m.Get("b"); !ok {
		t.Fatal("b missing")
	}
	if err := m.Put("d", []byte("d"), 0); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := m.Get("c"); ok {
		t.Fatal("LRU evicted by insertion order, not recency")
	}
	if _, ok, _ := m.Get("b"); !ok {
		t.Fatal("recently-used entry evicted")
	}
	st, _ := m.Stats()
	if st.Entries != 2 {
		t.Fatalf("Stats = %+v, want 2 entries", st)
	}
}

// TestTypedAdapters round-trips a wire.Result and a JobRecord through
// the JSON adapters over both backends.
func TestTypedAdapters(t *testing.T) {
	for name, mk := range backends(t) {
		t.Run(name, func(t *testing.T) {
			res := &wire.Result{
				Version:   wire.Version,
				Method:    wire.MethodSeqPair,
				Cost:      42.5,
				Placement: []placer.Placed{{Name: "m1", X: 1, Y: 2, W: 3, H: 4}},
			}
			rc := NewResultCache(mk(), 0)
			if err := rc.Put("hash1", res); err != nil {
				t.Fatal(err)
			}
			got, ok, err := rc.Get("hash1")
			if err != nil || !ok {
				t.Fatalf("ResultCache.Get: ok=%v err=%v", ok, err)
			}
			if got.Cost != res.Cost || len(got.Placement) != 1 || got.Placement[0] != res.Placement[0] {
				t.Fatalf("round-trip mangled the result: %+v", got)
			}
			if _, ok, _ := rc.Get("absent"); ok {
				t.Fatal("ResultCache hit on absent hash")
			}

			js := NewJobStore(mk(), 0)
			rec := &JobRecord{ID: "job-7", Hash: "hash1", State: "done",
				Faults: []string{"scheduler/worker-panic"}, Result: res, FinishedMS: 1234}
			if err := js.Put(rec); err != nil {
				t.Fatal(err)
			}
			back, ok, err := js.Get("job-7")
			if err != nil || !ok {
				t.Fatalf("JobStore.Get: ok=%v err=%v", ok, err)
			}
			if back.State != "done" || back.Hash != "hash1" || len(back.Faults) != 1 ||
				back.Result == nil || back.Result.Cost != 42.5 {
				t.Fatalf("JobRecord round-trip mangled: %+v", back)
			}
			if err := js.Put(&JobRecord{}); err == nil {
				t.Fatal("JobStore accepted a record without an id")
			}
		})
	}
}

// TestResultCacheCorruptEntryIsMiss: a torn or corrupt cached result
// must read as a miss (and be dropped) so the hash re-solves instead
// of erroring forever.
func TestResultCacheCorruptEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	f, err := NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Put("badhash", []byte("{not json"), 0); err != nil {
		t.Fatal(err)
	}
	rc := NewResultCache(f, 0)
	if _, ok, err := rc.Get("badhash"); ok || err != nil {
		t.Fatalf("corrupt entry: ok=%v err=%v, want clean miss", ok, err)
	}
	if _, ok, _ := f.Get("badhash"); ok {
		t.Fatal("corrupt entry not dropped after the miss")
	}
}
