package cluster

import (
	"fmt"
	"testing"
)

func ringNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("db-%04d", i)
	}
	return names
}

func TestRingDeterministic(t *testing.T) {
	// Two fronts built from the same (slots, vnodes, seed) triple must
	// route every name identically — the property replica placement and
	// stateless front tiers rest on.
	a := NewRing(4, 64, 42)
	b := NewRing(4, 64, 42)
	for _, name := range ringNames(1000) {
		if a.Owner(name) != b.Owner(name) {
			t.Fatalf("rings with identical parameters disagree on %q: %d vs %d",
				name, a.Owner(name), b.Owner(name))
		}
	}
}

func TestRingSeedChangesPlacement(t *testing.T) {
	a := NewRing(4, 64, 1)
	b := NewRing(4, 64, 2)
	moved := 0
	for _, name := range ringNames(1000) {
		if a.Owner(name) != b.Owner(name) {
			moved++
		}
	}
	if moved == 0 {
		t.Error("changing the seed moved no names; placements are not seed-dependent")
	}
}

func TestRingBalance(t *testing.T) {
	// With the default vnode count a 4-slot ring should spread 2000 names
	// roughly evenly; a slot grabbing more than half (or nearly nothing)
	// means the virtual-point projection is broken.
	r := NewRing(4, 0, 7)
	counts := make([]int, 4)
	names := ringNames(2000)
	for _, name := range names {
		slot := r.Owner(name)
		if slot < 0 || slot >= 4 {
			t.Fatalf("Owner(%q) = %d, out of range", name, slot)
		}
		counts[slot]++
	}
	for slot, c := range counts {
		if c < len(names)/10 || c > len(names)/2 {
			t.Errorf("slot %d owns %d of %d names; balance is off: %v", slot, c, len(names), counts)
		}
	}
}

func TestRingBalancesSequentialNames(t *testing.T) {
	// Deployments name databases db-000, db-001, … (loadgen.Spawn does),
	// names that differ only in their last bytes. With the default seed
	// and vnode count, no slot of a 2-, 3- or 4-slot ring may own more
	// than twice or less than half its fair share of 100 such names.
	names := make([]string, 100)
	for i := range names {
		names[i] = fmt.Sprintf("db-%03d", i)
	}
	for _, slots := range []int{2, 3, 4} {
		r := NewRing(slots, 0, 0)
		counts := make([]int, slots)
		for _, name := range names {
			counts[r.Owner(name)]++
		}
		fair := len(names) / slots
		for slot, c := range counts {
			if c < fair/2 || c > 2*fair {
				t.Errorf("%d slots: slot %d owns %d of %d names: %v", slots, slot, c, len(names), counts)
			}
		}
	}
}

func TestRingConsistency(t *testing.T) {
	// The consistent-hashing contract: growing the ring by one slot only
	// moves names onto the new slot — no name shuffles between surviving
	// slots — and only a minority of names move at all.
	small := NewRing(4, 64, 9)
	grown := NewRing(5, 64, 9)
	names := ringNames(2000)
	moved := 0
	for _, name := range names {
		before, after := small.Owner(name), grown.Owner(name)
		if before == after {
			continue
		}
		moved++
		if after != 4 {
			t.Fatalf("%q moved from slot %d to surviving slot %d; only the new slot may gain names",
				name, before, after)
		}
	}
	if moved == 0 {
		t.Error("no names moved to the new slot")
	}
	if moved > len(names)/2 {
		t.Errorf("%d of %d names moved when adding one slot to four; expected roughly 1/5", moved, len(names))
	}
}

func TestRingDegenerateParameters(t *testing.T) {
	r := NewRing(0, -1, 0) // clamps to one slot, default vnodes
	if r.Slots() != 1 {
		t.Fatalf("Slots() = %d, want 1", r.Slots())
	}
	for _, name := range ringNames(50) {
		if got := r.Owner(name); got != 0 {
			t.Fatalf("single-slot ring routed %q to %d", name, got)
		}
	}
}
