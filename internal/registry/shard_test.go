package registry

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestShardedLayout: owners actually spread over multiple shard files,
// the meta file pins the layout, and reopening with a different count
// is refused instead of silently re-hashed.
func TestShardedLayout(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "reg")
	st, err := OpenSharded(dir, 4, FileOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if err := st.PutOwner(testOwner(fmt.Sprintf("tenant-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	nonEmpty := 0
	for i := 0; i < 4; i++ {
		fi, err := os.Stat(filepath.Join(dir, fmt.Sprintf("shard-%03d.jsonl", i)))
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 2 {
		t.Errorf("32 owners landed on %d of 4 shards; hashing is degenerate", nonEmpty)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// The placement is part of the on-disk format: existing directories
	// must keep finding their owners on every platform. tenant-00..02
	// hash to 2^31 or more, which is negative as a 32-bit int.
	for owner, shard := range map[string]int{
		"tenant-00": 0, "tenant-01": 3, "tenant-02": 2, "tenant-03": 1, "tenant-31": 0,
	} {
		fs, err := OpenFile(filepath.Join(dir, fmt.Sprintf("shard-%03d.jsonl", shard)), FileOptions{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fs.GetOwner(owner); err != nil {
			t.Errorf("%s not on shard %d: %v", owner, shard, err)
		}
		if err := fs.Close(); err != nil {
			t.Fatal(err)
		}
	}

	if _, err := OpenSharded(dir, 8, FileOptions{NoSync: true}); err == nil || !strings.Contains(err.Error(), "resharding") {
		t.Fatalf("reopen with wrong shard count = %v, want resharding error", err)
	}
	re, err := OpenSharded(dir, 4, FileOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	owners, err := re.ListOwners()
	if err != nil || len(owners) != 32 {
		t.Fatalf("owners after reopen = %d, %v", len(owners), err)
	}
	if owners[0].ID != "tenant-00" || owners[31].ID != "tenant-31" {
		t.Errorf("merged ListOwners not id-sorted: %s .. %s", owners[0].ID, owners[31].ID)
	}
}

// TestShardedSecondProcessRefused: each shard holds its flock, so a
// second handle on the same directory must fail like a second File
// handle would.
func TestShardedSecondProcessRefused(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "reg")
	st, err := OpenSharded(dir, 2, FileOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := OpenSharded(dir, 2, FileOptions{NoSync: true}); err == nil {
		t.Fatal("second open of a locked sharded registry succeeded")
	}
}

// TestShardedConcurrentOwners: appends to different owners proceed
// concurrently across shards; every write is visible afterwards and
// LogSize sums the shards.
func TestShardedConcurrentOwners(t *testing.T) {
	st, err := OpenSharded(filepath.Join(t.TempDir(), "reg"), 4, FileOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const owners = 8
	for i := 0; i < owners; i++ {
		if err := st.PutOwner(testOwner(fmt.Sprintf("tenant-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, owners)
	for i := 0; i < owners; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			owner := fmt.Sprintf("tenant-%d", i)
			for r := 0; r < 10; r++ {
				if err := st.AddReceipt(testReceipt(owner, fmt.Sprintf("r-%d", r))); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := 0; i < owners; i++ {
		recs, err := st.ListReceipts(fmt.Sprintf("tenant-%d", i))
		if err != nil || len(recs) != 10 {
			t.Fatalf("tenant-%d receipts = %d, %v", i, len(recs), err)
		}
	}
	before, err := st.LogSize()
	if err != nil || before == 0 {
		t.Fatalf("LogSize = %d, %v", before, err)
	}
	// Re-register every owner, compact, and the summed size shrinks back.
	for i := 0; i < owners; i++ {
		for g := 0; g < 10; g++ {
			o := testOwner(fmt.Sprintf("tenant-%d", i))
			o.Gamma = g + 1
			if err := st.PutOwner(o); err != nil {
				t.Fatal(err)
			}
		}
	}
	bloated, _ := st.LogSize()
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	after, _ := st.LogSize()
	if after >= bloated {
		t.Errorf("sharded compact did not shrink: %d -> %d", bloated, after)
	}
}
