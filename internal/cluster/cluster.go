// Package cluster is the fleet's owner-routing arithmetic: a
// consistent-hash ring mapping owner ids onto node addresses. The same
// ring is built independently by every wmxmld node (from --fleet-nodes),
// so routing needs no coordination service — any party holding the
// node list computes the same owner → node assignment.
//
// Consistent hashing (vs. hash-mod-N) keeps the assignment stable when
// the fleet changes: adding or removing one node remaps only the owners
// that land on its ring segments, about 1/N of the tenant set, so the
// other nodes' doc and plan caches stay warm through a resize.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// vnodesPerNode is how many points each node occupies on the ring.
// More points → smoother owner spread between heterogeneous node
// counts; 64 keeps the worst observed imbalance under ~25% for small
// fleets while the full point list still fits in a cache line count
// that binary-searches in nanoseconds.
const vnodesPerNode = 64

// mix32 is a multiply-xorshift finalizer (murmur3's fmix32) applied on
// top of FNV-1a. Raw FNV output must not be used for ring positions:
// its prime (16777619) is within 0.01% of the mean point gap on a
// 256-point ring (2^32/256), so sequential ids — "tenant-01",
// "tenant-02", ... — stride the ring in near-resonance with the point
// density and pile onto a few nodes. The finalizer's avalanche breaks
// the stride.
func mix32(h uint32) uint32 {
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	h *= 0xc2b2ae35
	h ^= h >> 16
	return h
}

// Ring is an immutable consistent-hash ring over a node list. Build
// one with New; methods are safe for concurrent use.
type Ring struct {
	nodes  []string // as given, index is the node id
	points []point  // sorted by hash
}

type point struct {
	hash uint32
	node int // index into nodes
}

// New builds a ring over the given node addresses. Order does not
// matter for the owner assignment (points sort by hash), but indexes
// returned by Owner refer to this slice's order. Node addresses must be
// distinct.
func New(nodes []string) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: no nodes")
	}
	seen := make(map[string]struct{}, len(nodes))
	r := &Ring{
		nodes:  append([]string(nil), nodes...),
		points: make([]point, 0, len(nodes)*vnodesPerNode),
	}
	for i, n := range nodes {
		if n == "" {
			return nil, fmt.Errorf("cluster: empty node address at index %d", i)
		}
		if _, dup := seen[n]; dup {
			return nil, fmt.Errorf("cluster: duplicate node address %q", n)
		}
		seen[n] = struct{}{}
		for v := 0; v < vnodesPerNode; v++ {
			h := fnv.New32a()
			fmt.Fprintf(h, "%s#%d", n, v)
			r.points = append(r.points, point{hash: mix32(h.Sum32()), node: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Hash ties break by node index so every ring built from the
		// same list agrees, whatever sort.Slice's internal order.
		return r.points[a].node < r.points[b].node
	})
	return r, nil
}

// Owner returns the index (into the node list given to New) of the
// node that owns the given owner id: the first ring point at or after
// the owner's hash, wrapping at the top.
func (r *Ring) Owner(ownerID string) int {
	h := fnv.New32a()
	h.Write([]byte(ownerID))
	target := mix32(h.Sum32())
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= target })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node
}

// Node returns the address of the node that owns the given owner id.
func (r *Ring) Node(ownerID string) string { return r.nodes[r.Owner(ownerID)] }

// Nodes returns the node list the ring was built over (a copy).
func (r *Ring) Nodes() []string { return append([]string(nil), r.nodes...) }

// Len reports the number of nodes.
func (r *Ring) Len() int { return len(r.nodes) }
