package registry

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// replaySeeds is the FuzzReplay seed corpus. The conformance suite
// reuses it: every state a File replays out of a seed must round-trip
// identically into every other backend.
var replaySeeds = []string{
	// Clean log with every record type, including a versioned
	// recipient line.
	`{"t":"owner","owner":{"id":"a","key":"k","mark":"m","dataset":"pubs"}}
{"t":"recipient","v":1,"recipient":{"id":"r1","owner":"a","note":"EU"}}
{"t":"receipt","receipt":{"id":"x","owner":"a","records":[{"id":"u","query":"q","type":"integer"}],"recipient":"r1"}}
`,
	// Torn tail: crash mid-append.
	`{"t":"owner","owner":{"id":"a","key":"k","mark":"m","dataset":"pubs"}}
{"t":"recipient","v":1,"recipient":{"id":"r1","ow`,
	// Terminated but garbage final line.
	`{"t":"owner","owner":{"id":"a","key":"k","mark":"m","dataset":"pubs"}}
###garbage###
`,
	// Garbage in the middle: must fail the open.
	`###garbage###
{"t":"owner","owner":{"id":"a","key":"k","mark":"m","dataset":"pubs"}}
`,
	// Recipient record from a future build.
	`{"t":"owner","owner":{"id":"a","key":"k","mark":"m","dataset":"pubs"}}
{"t":"recipient","v":99,"recipient":{"id":"r1","owner":"a"}}
`,
	// Recipient before its owner: invalid order.
	`{"t":"recipient","v":1,"recipient":{"id":"r1","owner":"ghost"}}
`,
	// Unknown record type, empty file, raw zeros.
	`{"t":"wormhole","owner":{"id":"a","key":"k","mark":"m","dataset":"pubs"}}
`,
	"",
	"\x00\x00\x00\n",
}

// FuzzReplay feeds arbitrary bytes to the JSONL replay path. The
// invariants, whatever the input:
//
//   - OpenFile never panics; it either opens or returns an error.
//   - If it opens, the replayed state equals applying every terminated
//     line in order (the reference below) — valid records are never
//     silently dropped, and only the final line may have been treated
//     as crash damage.
//   - An opened store remains fully usable: registering an owner, a
//     recipient and a receipt must work on top of whatever survived.
func FuzzReplay(f *testing.F) {
	for _, s := range replaySeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "reg.jsonl")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Skip()
		}
		st, err := OpenFile(path, FileOptions{NoSync: true})
		if err != nil {
			return // rejected inputs are fine; panics are not
		}
		defer st.Close()

		// Reference: apply every newline-terminated line in order
		// through the same record semantics.
		ref := &File{Memory: NewMemory()}
		var lines []string
		for _, l := range strings.SplitAfter(string(data), "\n") {
			if strings.HasSuffix(l, "\n") {
				lines = append(lines, l)
			}
		}
		for i, line := range lines {
			if aerr := ref.apply([]byte(line)); aerr != nil {
				if i == len(lines)-1 {
					break // final-line damage: replay drops it too
				}
				t.Fatalf("open succeeded but line %d/%d is invalid: %v", i+1, len(lines), aerr)
			}
		}
		assertSameState(t, st.Memory, ref.Memory)

		// Whatever survived, the store must still accept new records.
		if err := st.PutOwner(testOwner("fuzz-owner")); err != nil {
			t.Fatalf("store not appendable after replay: %v", err)
		}
		if err := st.PutRecipient(Recipient{ID: "fuzz-rcpt", Owner: "fuzz-owner"}); err != nil {
			t.Fatalf("recipient append after replay: %v", err)
		}
		if err := st.AddReceipt(testReceipt("fuzz-owner", "fuzz-receipt")); err != nil {
			t.Fatalf("receipt append after replay: %v", err)
		}
	})
}

// assertSameState compares the replayed store against the reference.
func assertSameState(t *testing.T, got, want *Memory) {
	t.Helper()
	go1, _ := got.ListOwners()
	wo1, _ := want.ListOwners()
	if !reflect.DeepEqual(go1, wo1) {
		t.Fatalf("owners diverge:\n got %+v\nwant %+v", go1, wo1)
	}
	for _, o := range wo1 {
		grc, _ := got.ListRecipients(o.ID)
		wrc, _ := want.ListRecipients(o.ID)
		if !reflect.DeepEqual(grc, wrc) {
			t.Fatalf("recipients of %q diverge:\n got %+v\nwant %+v", o.ID, grc, wrc)
		}
		gr, _ := got.ListReceipts(o.ID)
		wr, _ := want.ListReceipts(o.ID)
		if !reflect.DeepEqual(gr, wr) {
			t.Fatalf("receipts of %q diverge:\n got %+v\nwant %+v", o.ID, gr, wr)
		}
	}
}
