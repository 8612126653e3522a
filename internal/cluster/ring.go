// Package cluster scales the selection service horizontally: registered
// databases are partitioned across shard processes by consistent hashing
// on database name, each shard runs an ordinary selection service, and a
// stateless front tier scatters every rank query to all shards over the
// netsearch fabric and fuses the partial rankings into one top-k.
//
// Topology (DESIGN.md §13):
//
//	client ──HTTP──▶ Front ──netsearch──▶ slot 0: replica A | replica B
//	                        └─netsearch──▶ slot 1: replica C | replica D
//
// Each ring slot holds N replica shards with identical database sets; the
// front fails over to the next replica when a shard's breaker is open or
// its RPC errors. Because query-based sampling is deterministic (same
// seed, same stopping rule), replicas that sample the same databases
// converge to byte-identical models, so failover preserves bit-identical
// fused rankings.
package cluster

import (
	"encoding/binary"
	"hash/fnv"
	"sort"
)

// Ring assigns database names to slots by consistent hashing. Each slot
// is projected onto the ring as a number of virtual points; a name is
// owned by the slot whose point follows the name's hash clockwise.
// Construction is deterministic: positions come from a seeded, finalized
// FNV-1a hash (no randomness, no map iteration), so every front tier
// built from the same (slots, vnodes, seed) triple routes identically —
// the property the whole placement scheme rests on.
type Ring struct {
	seed   uint64
	slots  int
	points []ringPoint // sorted by (pos, slot)
}

type ringPoint struct {
	pos  uint64
	slot int
}

// NewRing builds a ring of the given number of slots, each projected as
// vnodes virtual points (vnodes <= 0 defaults to 64 — enough that a
// 4-slot ring balances within a few percent). seed perturbs every hash,
// letting disjoint clusters decorrelate their placements.
func NewRing(slots, vnodes int, seed uint64) *Ring {
	if slots < 1 {
		slots = 1
	}
	if vnodes <= 0 {
		vnodes = 64
	}
	r := &Ring{seed: seed, slots: slots, points: make([]ringPoint, 0, slots*vnodes)}
	var label [16]byte
	for s := 0; s < slots; s++ {
		for v := 0; v < vnodes; v++ {
			binary.LittleEndian.PutUint64(label[0:8], uint64(s))
			binary.LittleEndian.PutUint64(label[8:16], uint64(v))
			r.points = append(r.points, ringPoint{pos: r.hash(label[:]), slot: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].pos != r.points[j].pos {
			return r.points[i].pos < r.points[j].pos
		}
		return r.points[i].slot < r.points[j].slot
	})
	return r
}

// Slots returns the number of slots the ring was built with.
func (r *Ring) Slots() int { return r.slots }

// Owner returns the slot that owns the database name: the slot of the
// first ring point at or clockwise-after the name's hash.
func (r *Ring) Owner(name string) int {
	h := r.hash([]byte(name))
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].pos >= h })
	if i == len(r.points) {
		i = 0 // wrap: the ring is a circle
	}
	return r.points[i].slot
}

// hash is seeded FNV-1a with a 64-bit finalizer: the seed bytes are
// folded in before the label, so different seeds produce independent
// ring geometries while staying fully deterministic across processes and
// runs. FNV-1a alone barely mixes its last input bytes into the high
// bits that order the ring, so names differing only in a trailing digit
// ("db-000" … "db-099") hash next to each other and land on one slot; the
// finalizer (MurmurHash3's fmix64) spreads every input bit over the whole
// word.
func (r *Ring) hash(b []byte) uint64 {
	h := fnv.New64a()
	var seed [8]byte
	binary.LittleEndian.PutUint64(seed[:], r.seed)
	h.Write(seed[:])
	h.Write(b)
	return fmix64(h.Sum64())
}

// fmix64 is MurmurHash3's 64-bit avalanche finalizer.
func fmix64(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb93e53fe1a85
	k ^= k >> 33
	return k
}
