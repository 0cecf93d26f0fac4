package registry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// File is the durable Store: a Memory replayed from an append-only
// JSONL log on open, with the log then attached to Memory's write path.
//
// Every mutation appends one self-describing line and (by default)
// fsyncs it before it is applied and acknowledged, so an acknowledged
// write survives a crash and a rejected one leaves no line. A torn
// final line — the signature of a crash mid-append — is detected on
// open and truncated away; a corrupt line followed by valid ones is
// real damage and fails the open. Compact rewrites the log to its live
// state (one line per owner, one per receipt) through a temp-file +
// rename, so a crash during compaction leaves the old log intact.
type File struct {
	*Memory

	path string
	f    *os.File // the log; written, measured and swapped under Memory.wmu
	sync bool

	compactMu sync.Mutex // serializes whole compactions against each other

	// compactHook, when set (tests only), runs after the snapshot
	// rewrite and before the delta copy + swap — the window where
	// appends and reads must proceed unblocked.
	compactHook func()
}

// FileOptions tunes a File store.
type FileOptions struct {
	// NoSync skips the per-append fsync. Throughput for durability:
	// only for benchmarks and bulk loads.
	NoSync bool
	// CompactOnOpen rewrites the log to its live state right after
	// replay, dropping superseded owner lines.
	CompactOnOpen bool
}

// RecipientRecordVersion is the current version of the "recipient" log
// record type. Recipient lines carry an explicit version tag (unlike
// the original owner/receipt lines, which predate versioning and are
// implicitly v0) so the record can evolve without a log-wide format
// bump; replay rejects versions newer than this build understands.
const RecipientRecordVersion = 1

// PlanRecordVersion is the current version of the "plan" log record
// type; replay rejects versions newer than this build understands.
const PlanRecordVersion = 1

// logLine is one JSONL record. Exactly one of Owner / Receipt /
// Recipient / Plan is set; T tags which ("owner" / "receipt" /
// "recipient" / "plan"). V is the record-type version, used by the
// recipient and plan lines.
type logLine struct {
	T         string      `json:"t"`
	V         int         `json:"v,omitempty"`
	Owner     *Owner      `json:"owner,omitempty"`
	Receipt   *Receipt    `json:"receipt,omitempty"`
	Recipient *Recipient  `json:"recipient,omitempty"`
	Plan      *PlanRecord `json:"plan,omitempty"`
}

// OpenFile opens (or creates) a JSONL registry log and replays it.
//
// The log is opened with O_APPEND (every write lands at the physical
// end of file regardless of seek position) and held under an exclusive
// advisory lock for the lifetime of the handle: a second process
// pointing at the same path would replay a moving file, truncate what
// it mistakes for a torn tail, and interleave appends — so it gets a
// "registry in use" error instead.
func OpenFile(path string, opts FileOptions) (*File, error) {
	f, err := openLocked(path)
	if err != nil {
		return nil, err
	}
	fs := &File{Memory: NewMemory(), path: path, f: f, sync: !opts.NoSync}
	if err := fs.replay(); err != nil {
		f.Close()
		return nil, err
	}
	fs.log = fs.append
	if opts.CompactOnOpen {
		if err := fs.Compact(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return fs, nil
}

// openLocked opens (or creates) path and acquires the exclusive lock,
// verifying afterwards that the locked inode is still what path names.
// Without the check there is a race against a concurrent Compact: we
// resolve the old inode, the other process renames a fresh log into
// place and closes (unlocking) the old one, and our flock then succeeds
// on an unlinked file — two handles serving "the same" path, one of
// them writing into the void. On mismatch the open is retried against
// the current file.
func openLocked(path string) (*os.File, error) {
	for attempt := 0; ; attempt++ {
		f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND|os.O_CREATE, 0o600)
		if err != nil {
			return nil, fmt.Errorf("registry: open %s: %w", path, err)
		}
		if err := lockFile(f); err != nil {
			f.Close()
			return nil, err
		}
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("registry: stat %s: %w", path, err)
		}
		di, err := os.Stat(path)
		if err == nil && os.SameFile(fi, di) {
			return f, nil
		}
		f.Close()
		if attempt >= 5 {
			return nil, fmt.Errorf("registry: open %s: file kept being replaced underneath the lock", path)
		}
	}
}

// replay loads the log into the in-memory state and positions the file
// for appending.
//
// Only newline-terminated lines are applied: an append fsyncs data and
// newline together, so a missing terminator means the write was never
// acknowledged and the tail is dropped. A terminated final line that
// fails to parse is likewise treated as crash damage (out-of-order
// block persistence) and dropped; a corrupt line with valid lines after
// it is real corruption and fails the open.
func (fs *File) replay() error {
	if _, err := fs.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	rd := bufio.NewReaderSize(fs.f, 1<<16)
	var good int64 // offset just past the last applied line
	for lineNo := 1; ; lineNo++ {
		line, err := rd.ReadBytes('\n')
		if err != nil && err != io.EOF {
			return fmt.Errorf("registry: read %s: %w", fs.path, err)
		}
		if len(line) == 0 || line[len(line)-1] != '\n' {
			break // unterminated tail (or clean EOF): truncate from good
		}
		if aerr := fs.apply(line); aerr != nil {
			if _, perr := rd.Peek(1); perr == io.EOF {
				break // corrupt final line: torn write, drop it
			}
			return fmt.Errorf("registry: %s line %d: %w", fs.path, lineNo, aerr)
		}
		good += int64(len(line))
		if err == io.EOF {
			break
		}
	}
	if err := fs.f.Truncate(good); err != nil {
		return fmt.Errorf("registry: truncate torn tail of %s: %w", fs.path, err)
	}
	// No seek needed: the file is O_APPEND, so writes land at the
	// (now truncated) end regardless of position.
	return nil
}

// apply folds one log line into the state through Memory's write
// path. Replay runs before the log is attached, so nothing is appended.
func (fs *File) apply(line []byte) error {
	var rec logLine
	if err := json.Unmarshal(line, &rec); err != nil {
		return err
	}
	return fs.write(rec)
}

// append writes one line and makes it durable. It is the Memory's log
// once replay is done, so it runs under Memory.wmu.
func (fs *File) append(rec logLine) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if _, err := fs.f.Write(data); err != nil {
		return fmt.Errorf("registry: append to %s: %w", fs.path, err)
	}
	if fs.sync {
		if err := fs.f.Sync(); err != nil {
			return fmt.Errorf("registry: sync %s: %w", fs.path, err)
		}
	}
	return nil
}

// Compact rewrites the log to its live state: one line per owner
// (latest registration wins) followed by each owner's recipients,
// delivery plans and receipts in insertion order. The rewrite goes
// through a temp file in the same directory and an atomic rename, so a
// crash at any point leaves a complete log.
//
// Compaction does not stall the store. The writer lock (Memory.wmu) is
// held only twice, briefly: once to pin a consistent snapshot boundary
// (copy the memory state, record the log size it corresponds to), and
// once at the end to splice in whatever was appended during the
// rewrite and swap the files. The snapshot itself — the expensive
// part, proportional to the live state — streams to the temp file with
// no lock held, so concurrent Gets, Lists and appends proceed at full
// speed while a large registry compacts.
func (fs *File) Compact() error {
	// One compaction at a time: two interleaved rewrites would each
	// rename a fresh log into place and orphan the other's appends.
	fs.compactMu.Lock()
	defer fs.compactMu.Unlock()

	// Phase 1 (brief lock): pin the snapshot boundary. Writes hold wmu
	// across the log append and the memory apply, so under it the
	// memory state is exactly the replay of the log's first `base`
	// bytes.
	fs.wmu.Lock()
	st, err := fs.f.Stat()
	if err != nil {
		fs.wmu.Unlock()
		return fmt.Errorf("registry: compact: %w", err)
	}
	base := st.Size()
	snap := fs.snapshot()
	src := fs.f
	fs.wmu.Unlock()

	// Phase 2 (no lock): stream the snapshot to a temp file.
	dir := filepath.Dir(fs.path)
	tmp, err := os.CreateTemp(dir, filepath.Base(fs.path)+".compact-*")
	if err != nil {
		return fmt.Errorf("registry: compact: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after the rename succeeds
	w := bufio.NewWriterSize(tmp, 1<<16)
	writeLine := func(rec logLine) error {
		data, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		data = append(data, '\n')
		_, err = w.Write(data)
		return err
	}
	fail := func(err error) error {
		tmp.Close()
		return fmt.Errorf("registry: compact: %w", err)
	}
	for i := range snap.owners {
		if err := writeLine(logLine{T: "owner", Owner: &snap.owners[i]}); err != nil {
			return fail(err)
		}
	}
	for _, o := range snap.owners {
		rcs := snap.recipients[o.ID]
		for i := range rcs {
			if err := writeLine(logLine{T: "recipient", V: RecipientRecordVersion, Recipient: &rcs[i]}); err != nil {
				return fail(err)
			}
		}
		plans := snap.plans[o.ID]
		for i := range plans {
			if err := writeLine(logLine{T: "plan", V: PlanRecordVersion, Plan: &plans[i]}); err != nil {
				return fail(err)
			}
		}
		recs := snap.receipts[o.ID]
		for i := range recs {
			if err := writeLine(logLine{T: "receipt", Receipt: &recs[i]}); err != nil {
				return fail(err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		return fail(err)
	}
	if fs.compactHook != nil {
		fs.compactHook()
	}

	// Phase 3 (brief lock): splice in the lines appended since the
	// snapshot boundary, make the file durable, and swap it in. The
	// delta is whole lines by construction — writes hold wmu for the
	// full append, and we hold it here — and replays cleanly on top of
	// the snapshot because the snapshot is the state at exactly `base`.
	// ReadAt leaves the O_APPEND handle's write position alone.
	fs.wmu.Lock()
	defer fs.wmu.Unlock()
	st, err = fs.f.Stat()
	if err != nil {
		return fail(err)
	}
	if delta := st.Size() - base; delta > 0 {
		if _, err := io.Copy(tmp, io.NewSectionReader(src, base, delta)); err != nil {
			return fail(err)
		}
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	// Lock the replacement BEFORE it becomes visible at fs.path: the
	// advisory lock is per inode, and taking it only after the rename
	// would leave a window where another process claims the fresh log
	// while this handle keeps appending to the unlinked old inode —
	// acknowledged writes that silently vanish. Locking first and then
	// renaming means the swapped-in file is never observable unlocked.
	if err := lockFile(tmp); err != nil {
		return fail(err)
	}
	if err := os.Rename(tmp.Name(), fs.path); err != nil {
		return fail(err)
	}
	// tmp stays open as the store's handle. It lacks O_APPEND, but its
	// position sits at end-of-file and the exclusive lock guarantees no
	// other writer moves it, so position-based appends are equivalent.
	old := fs.f
	fs.f = tmp
	old.Close()
	return nil
}

// LogSize reports the current byte size of the log file (for
// compaction policies and tests).
func (fs *File) LogSize() (int64, error) {
	fs.wmu.Lock()
	defer fs.wmu.Unlock()
	st, err := fs.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// Close flushes and closes the log.
func (fs *File) Close() error {
	fs.wmu.Lock()
	defer fs.wmu.Unlock()
	return fs.f.Close()
}

var _ Store = (*File)(nil)
