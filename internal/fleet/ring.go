// Package fleet shards the scenario service horizontally: a
// consistent-hash router (occamy-served -shards) in front of N occamy-served
// workers routes every submission by scenario.Spec.Fingerprint(), so an
// identical or equivalent spec always lands on the same worker — the
// content-addressed result cache becomes a fleet-wide sharded tier for
// free, and repeat submissions stay O(1) hits regardless of fleet size.
// Sweeps are expanded router-side and fanned point-by-point to each
// point's home shard, then re-assembled into the byte-identical table a
// single process would have produced; batches fan out the same way. A
// per-client token bucket at the router keeps one client from starving
// the whole fleet.
package fleet

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultReplicas is the virtual-node count per worker. 128 vnodes keep
// the load spread within a few percent of uniform for small fleets
// while the ring stays tiny (N*128 sorted uint64s).
const DefaultReplicas = 128

// Ring is a consistent-hash ring over a fixed set of named nodes
// (worker base URLs). Each node owns Replicas virtual points on the
// ring, hashed from its *name* — not its slice position — so the
// key→node mapping is invariant under reordering the node list, and
// removing a node remaps only the keys that node owned. Lookup walks
// clockwise from the key's hash to the next virtual point.
//
// The ring is immutable after construction and safe for concurrent
// Lookup. The router and the load generator's -route=hash mode build
// rings from the same target list, so both agree on every key's home
// shard.
type Ring struct {
	nodes  []string
	hashes []uint64 // sorted virtual points
	owners []int    // owners[i] = index into nodes for hashes[i]
}

// NewRing builds a ring over the node names with the given virtual-node
// count (<= 0 selects DefaultReplicas). Names must be unique: two nodes
// with the same name would own identical virtual points.
func NewRing(nodes []string, replicas int) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("fleet: ring needs at least one node")
	}
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	seen := make(map[string]bool, len(nodes))
	r := &Ring{
		nodes:  append([]string(nil), nodes...),
		hashes: make([]uint64, 0, len(nodes)*replicas),
		owners: make([]int, 0, len(nodes)*replicas),
	}
	type vnode struct {
		hash  uint64
		owner int
	}
	vnodes := make([]vnode, 0, len(nodes)*replicas)
	for i, name := range nodes {
		if seen[name] {
			return nil, fmt.Errorf("fleet: duplicate node %q in ring", name)
		}
		seen[name] = true
		for rep := 0; rep < replicas; rep++ {
			vnodes = append(vnodes, vnode{hash: hash64(fmt.Sprintf("%s#%d", name, rep)), owner: i})
		}
	}
	// Ties (hash collisions between different nodes' vnodes) resolve to
	// the lexically smaller node name so the ordering is deterministic
	// regardless of input order.
	sort.Slice(vnodes, func(a, b int) bool {
		if vnodes[a].hash != vnodes[b].hash {
			return vnodes[a].hash < vnodes[b].hash
		}
		return r.nodes[vnodes[a].owner] < r.nodes[vnodes[b].owner]
	})
	for _, v := range vnodes {
		r.hashes = append(r.hashes, v.hash)
		r.owners = append(r.owners, v.owner)
	}
	return r, nil
}

// Nodes returns the node names in construction order (Lookup indexes
// into this slice).
func (r *Ring) Nodes() []string { return r.nodes }

// Lookup returns the index of the node owning the key: the first
// virtual point at or clockwise of the key's hash, wrapping at the top
// of the ring.
func (r *Ring) Lookup(key string) int {
	h := hash64(key)
	i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	if i == len(r.hashes) {
		i = 0
	}
	return r.owners[i]
}

// hash64 is FNV-1a over the string — fast, dependency-free, and stable
// across processes (the router and loadgen must agree byte-for-byte).
func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return h.Sum64()
}
