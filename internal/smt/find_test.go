package smt

import (
	"fmt"
	"math/rand"
	"testing"

	"zenport/internal/portmodel"
)

// relabeledPair returns an instance of n single-µop keys over ports
// ports, a random mapping m1 of it, and m2, the same mapping with its
// ports relabeled by a rotation. The two differ on every key whose
// port set the rotation moves, yet no experiment tells them apart.
func relabeledPair(n, ports int, seed int64) (*Instance, *portmodel.Mapping, *portmodel.Mapping) {
	rng := rand.New(rand.NewSource(seed))
	in := &Instance{NumPorts: ports, Epsilon: 0.02}
	m1, m2 := portmodel.NewMapping(ports), portmodel.NewMapping(ports)
	all := portmodel.PortSet(1<<uint(ports) - 1)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%02d", i)
		in.Uops = append(in.Uops, UopSpec{Key: key})
		ps := portmodel.PortSet(1 + rng.Intn(1<<uint(ports)-1))
		rot := (ps<<1 | ps>>uint(ports-1)) & all
		m1.Set(key, portmodel.Usage{{Ports: ps, Count: 1}})
		m2.Set(key, portmodel.Usage{{Ports: rot, Count: 1}})
	}
	return in, m1, m2
}

// TestDistinguishAllocations: a distinguishing-experiment search that
// finds nothing allocates per search, not per candidate. The
// candidates of a key set are enumerated once into a flat slab, and
// no experiment map is built for a candidate that is not returned.
// At 15 keys and the campaign's bounds there are 5,675 candidates; a
// search that allocated for each would make thousands.
func TestDistinguishAllocations(t *testing.T) {
	in, m1, m2 := relabeledPair(15, 10, 3)
	const maxDistinct, maxTotal = 3, 5
	if sameUsage(m1, m2) {
		t.Fatal("the relabeled mapping equals the original; want differing keys")
	}
	e, _, _, err := in.distinguish(m1, m2, maxDistinct, maxTotal)
	if err != nil || e != nil {
		t.Fatalf("distinguish = %v, %v; want no experiment", e, err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, _, _, err := in.distinguish(m1, m2, maxDistinct, maxTotal); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per search", allocs)
	if allocs >= 90 {
		t.Fatalf("a no-hit distinguish makes %.0f allocations; want fewer than 90", allocs)
	}
}
