// Package partition implements the hash-slot partition map that binds
// lock resources to their master lock server (ROADMAP item 1).
//
// The lock space is divided into NumSlots hash slots; a versioned Map
// records which server masters each slot under an epoch number. Servers
// hold time-bounded leases on their slots (see Coordinator) and refuse
// grants for slots they do not hold; clients cache a Map snapshot
// behind an atomic pointer and refresh it when a server answers
// wire.ErrNotOwner or stops answering at all. The epoch is bumped on
// every mastership change, so any two views of the lock space are
// ordered: a client that has seen epoch E never routes by a map older
// than E.
package partition

import "fmt"

// NumSlots is the number of hash slots the lock space is divided into.
// 64 slots over at most a handful of lock servers keeps per-slot state
// transfers small while still letting slots be spread (and migrated)
// with reasonable balance.
const NumSlots = 64

// Slot identifies one hash slot, in [0, NumSlots).
type Slot int

// NoOwner marks a slot with no current master in a Map.
const NoOwner = int32(-1)

// SlotOf maps a resource ID to its hash slot. It uses the same
// Fibonacci multiplicative hash as meta.PlaceStripe so resource IDs
// that differ only in low bits (fid<<16|stripe layouts) still spread
// evenly, but takes the top bits so the two placements stay
// independent of each other.
func SlotOf(rid uint64) Slot {
	return Slot((rid * 0x9E3779B97F4A7C15) >> 58 % NumSlots)
}

// Map is an immutable snapshot of slot→server mastership at one epoch.
// Readers hold it behind an atomic pointer and never mutate it; a new
// mastership view is a new Map with a larger Epoch.
type Map struct {
	// Epoch orders mastership views. It is bumped by the Coordinator
	// on every change of any slot's holder, so Epoch equality implies
	// Owner equality.
	Epoch uint64
	// Owner[s] is the index of the server mastering slot s, or NoOwner.
	Owner [NumSlots]int32
}

// OwnerOf returns the index of the server mastering rid's slot, or
// NoOwner when the slot is currently masterless.
func (m *Map) OwnerOf(rid uint64) int32 {
	return m.Owner[SlotOf(rid)]
}

// Uniform splits the slot space evenly across n servers: server i gets
// every slot s with s % n == i. It is the initial assignment used by
// both the cluster harness and the static (coordinator-less) mode of
// cmd/ccpfs-server.
func Uniform(n int) [][]Slot {
	if n <= 0 {
		panic(fmt.Sprintf("partition: Uniform(%d)", n))
	}
	out := make([][]Slot, n)
	for s := 0; s < NumSlots; s++ {
		out[s%n] = append(out[s%n], Slot(s))
	}
	return out
}

// UniformMap is the Map corresponding to Uniform(n) at the given
// epoch. Static deployments (no coordinator) serve this to clients.
func UniformMap(epoch uint64, n int) *Map {
	m := &Map{Epoch: epoch}
	for s := 0; s < NumSlots; s++ {
		m.Owner[s] = int32(s % n)
	}
	return m
}
