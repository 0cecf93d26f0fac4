package registry

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
)

// Sharded is a Store spread across N independent File logs, one per
// shard, with owners assigned to shards by a stable hash of the owner
// id. Every record is owner-scoped, so a shard is a complete, self
// contained registry for its slice of the tenant set: appends on
// different shards never contend on a lock or an fsync, and each shard
// compacts independently (and, via File's non-stalling Compact,
// without blocking its own readers either).
//
// The shard count is fixed at creation and recorded in a shards.json
// meta file inside the directory; reopening with a different -shards
// value is an error rather than a silent re-hash that would strand
// owners on unreachable shards.
type Sharded struct {
	shards []*File
}

// shardMetaName is the meta file recording the shard layout.
const shardMetaName = "shards.json"

// shardMetaVersion gates the meta format, mirroring the log-line
// version scheme: a future layout change bumps it and older builds
// refuse the directory instead of mis-hashing.
const shardMetaVersion = 1

type shardMeta struct {
	V      int `json:"v"`
	Shards int `json:"shards"`
}

// OpenSharded opens (or creates) a sharded registry under dir with n
// File shards. On first open the directory is created and the layout
// recorded; on reopen the recorded shard count must match n (pass the
// recorded count — there is no resharding). Each shard inherits opts.
func OpenSharded(dir string, n int, opts FileOptions) (*Sharded, error) {
	if n <= 0 {
		return nil, fmt.Errorf("registry: sharded: shard count must be positive, got %d", n)
	}
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, fmt.Errorf("registry: sharded: %w", err)
	}
	metaPath := filepath.Join(dir, shardMetaName)
	data, err := os.ReadFile(metaPath)
	switch {
	case err == nil:
		var meta shardMeta
		if err := json.Unmarshal(data, &meta); err != nil {
			return nil, fmt.Errorf("registry: sharded: bad %s: %w", shardMetaName, err)
		}
		if meta.V > shardMetaVersion {
			return nil, fmt.Errorf("registry: sharded: %s version %d is newer than this build understands (%d)", shardMetaName, meta.V, shardMetaVersion)
		}
		if meta.Shards != n {
			return nil, fmt.Errorf("registry: sharded: directory has %d shards, asked to open with %d (resharding is not supported)", meta.Shards, n)
		}
	case os.IsNotExist(err):
		data, _ := json.Marshal(shardMeta{V: shardMetaVersion, Shards: n})
		tmp := metaPath + ".tmp"
		if err := os.WriteFile(tmp, append(data, '\n'), 0o600); err != nil {
			return nil, fmt.Errorf("registry: sharded: %w", err)
		}
		if err := os.Rename(tmp, metaPath); err != nil {
			return nil, fmt.Errorf("registry: sharded: %w", err)
		}
	default:
		return nil, fmt.Errorf("registry: sharded: %w", err)
	}
	s := &Sharded{shards: make([]*File, n)}
	for i := range s.shards {
		fs, err := OpenFile(filepath.Join(dir, fmt.Sprintf("shard-%03d.jsonl", i)), opts)
		if err != nil {
			for _, open := range s.shards[:i] {
				open.Close()
			}
			return nil, err
		}
		s.shards[i] = fs
	}
	return s, nil
}

// shardFor maps an owner id to its shard. FNV-1a over the id: stable
// across processes and builds, which is what makes the layout durable.
// The modulus is taken in uint32 so that a 32-bit int never sees a
// negative hash and every platform picks the same shard.
func (s *Sharded) shardFor(owner string) *File {
	h := fnv.New32a()
	h.Write([]byte(owner))
	return s.shards[h.Sum32()%uint32(len(s.shards))]
}

// PutOwner registers or replaces an owner on its shard.
func (s *Sharded) PutOwner(o Owner) error { return s.shardFor(o.ID).PutOwner(o) }

// GetOwner returns the owner or ErrNotFound.
func (s *Sharded) GetOwner(id string) (Owner, error) { return s.shardFor(id).GetOwner(id) }

// ListOwners merges every shard's owners, id-sorted.
func (s *Sharded) ListOwners() ([]Owner, error) {
	var out []Owner
	for _, sh := range s.shards {
		owners, err := sh.ListOwners()
		if err != nil {
			return nil, err
		}
		out = append(out, owners...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// AddReceipt appends a receipt on the owner's shard.
func (s *Sharded) AddReceipt(r Receipt) error { return s.shardFor(r.Owner).AddReceipt(r) }

// GetReceipt returns one receipt or ErrNotFound.
func (s *Sharded) GetReceipt(owner, id string) (Receipt, error) {
	return s.shardFor(owner).GetReceipt(owner, id)
}

// ListReceipts returns an owner's receipts in insertion order.
func (s *Sharded) ListReceipts(owner string) ([]Receipt, error) {
	return s.shardFor(owner).ListReceipts(owner)
}

// PutRecipient registers a recipient on the owner's shard.
func (s *Sharded) PutRecipient(rc Recipient) error { return s.shardFor(rc.Owner).PutRecipient(rc) }

// GetRecipient returns one recipient or ErrNotFound.
func (s *Sharded) GetRecipient(owner, id string) (Recipient, error) {
	return s.shardFor(owner).GetRecipient(owner, id)
}

// ListRecipients returns an owner's recipients in first-registration
// order.
func (s *Sharded) ListRecipients(owner string) ([]Recipient, error) {
	return s.shardFor(owner).ListRecipients(owner)
}

// PutPlan stores a delivery plan on the owner's shard.
func (s *Sharded) PutPlan(p PlanRecord) error { return s.shardFor(p.Owner).PutPlan(p) }

// GetPlan returns the plan for (owner, digest) or ErrNotFound.
func (s *Sharded) GetPlan(owner, digest string) (PlanRecord, error) {
	return s.shardFor(owner).GetPlan(owner, digest)
}

// ListPlans returns an owner's plans in first-store order.
func (s *Sharded) ListPlans(owner string) ([]PlanRecord, error) {
	return s.shardFor(owner).ListPlans(owner)
}

// Compact rewrites every shard's log to its live state. Shards compact
// sequentially; each individual compaction is non-stalling, so the
// store stays fully available throughout.
func (s *Sharded) Compact() error {
	for i, sh := range s.shards {
		if err := sh.Compact(); err != nil {
			return fmt.Errorf("registry: sharded: shard %d: %w", i, err)
		}
	}
	return nil
}

// LogSize sums the shard log sizes in bytes.
func (s *Sharded) LogSize() (int64, error) {
	var total int64
	for _, sh := range s.shards {
		n, err := sh.LogSize()
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// Close releases every shard. The first error wins, but all shards are
// closed regardless.
func (s *Sharded) Close() error {
	var first error
	for _, sh := range s.shards {
		if err := sh.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

var _ Store = (*Sharded)(nil)
