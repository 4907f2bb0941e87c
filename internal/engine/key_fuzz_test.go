package engine_test

import (
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"zenport/internal/engine"
	"zenport/internal/persist"
	"zenport/internal/portmodel"
)

// FuzzCanonicalKey builds an experiment from '|'-separated scheme
// names (the one byte a scheme name cannot contain in a key) and
// little-endian uint32 counts, inserting its terms in three orders.
// Every order must give the same canonical key, and parsing that key
// back (persist.ParseCanonicalKey, which recovery uses to restore
// execution counts) must give the experiment. The corpus under
// testdata/fuzz/FuzzCanonicalKey holds Zen scheme names, repeated
// names and extreme counts.
func FuzzCanonicalKey(f *testing.F) {
	f.Fuzz(func(t *testing.T, names string, counts []byte) {
		type term struct {
			name  string
			count int
		}
		var terms []term
		for i, name := range strings.Split(names, "|") {
			if name == "" {
				continue
			}
			var c [4]byte
			for j := range c {
				if k := 4*i + j; k < len(counts) {
					c[j] = counts[k]
				}
			}
			terms = append(terms, term{name, 1 + int(binary.LittleEndian.Uint32(c[:]))})
		}
		if len(terms) == 0 {
			return
		}
		build := func(order func(i int) int) portmodel.Experiment {
			e := portmodel.Experiment{}
			for i := range terms {
				tm := terms[order(i)]
				e[tm.name] += tm.count
			}
			return e
		}
		n := len(terms)
		e := build(func(i int) int { return i })
		key := engine.CanonicalKey(e)
		for _, p := range []portmodel.Experiment{
			build(func(i int) int { return n - 1 - i }),
			build(func(i int) int { return (i + 1) % n }),
		} {
			if k := engine.CanonicalKey(p); k != key {
				t.Fatalf("permuted experiment keys %q, want %q", k, key)
			}
		}
		back, err := persist.ParseCanonicalKey(key)
		if err != nil {
			t.Fatalf("ParseCanonicalKey(%q): %v", key, err)
		}
		if !reflect.DeepEqual(back, e) {
			t.Fatalf("ParseCanonicalKey(%q) = %v, want %v", key, back, e)
		}
	})
}
