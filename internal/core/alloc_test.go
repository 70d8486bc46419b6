package core

import (
	"context"
	"fmt"
	"testing"

	"kbharvest/internal/rdf"
)

// The matcher's ID row lives on Match's stack, and a step's allocations
// are its posting copy and its triples. The bounds are the counts of a
// chain3- and a coworkers-shaped join (two of the serving benchmark's join
// shapes); an ID row that escaped to the heap would add one allocation per
// Match.
func TestMatchAllocationsPinned(t *testing.T) {
	st := NewStore()
	for i := 0; i < 40; i++ {
		p := fmt.Sprintf("kb:p%d", i)
		st.Add(rdf.T(p, "kb:worksAt", fmt.Sprintf("kb:co%d", i%5)))
		st.Add(rdf.T(p, "kb:bornIn", fmt.Sprintf("kb:city%d", i%6)))
	}
	for c := 0; c < 5; c++ {
		st.Add(rdf.T(fmt.Sprintf("kb:co%d", c), "kb:locatedIn", fmt.Sprintf("kb:city%d", c%6)))
	}
	for c := 0; c < 6; c++ {
		st.Add(rdf.T(fmt.Sprintf("kb:city%d", c), "kb:locatedIn", fmt.Sprintf("kb:country%d", c%2)))
	}
	mustParse := func(lines ...string) []Pattern {
		var ps []Pattern
		for _, l := range lines {
			p, err := ParsePattern(l)
			if err != nil {
				t.Fatal(err)
			}
			ps = append(ps, p)
		}
		return ps
	}
	for _, tc := range []struct {
		name      string
		patterns  []Pattern
		rows      int
		maxAllocs float64
	}{
		{"chain3", mustParse("kb:p7 kb:worksAt ?c", "?c kb:locatedIn ?city", "?city kb:locatedIn ?country"), 1, 6},
		{"coworkers", mustParse("kb:p7 kb:worksAt ?c", "?q kb:worksAt ?c", "?q kb:bornIn ?city"), 8, 20},
	} {
		m := st.Compile(tc.patterns)
		row := make([]rdf.Term, len(m.Vars()))
		n := 0
		count := func([]rdf.Term) bool { n++; return true }
		allocs := testing.AllocsPerRun(100, func() {
			n = 0
			if err := m.Match(context.Background(), row, 0, count); err != nil {
				t.Fatal(err)
			}
		})
		if n != tc.rows {
			t.Errorf("%s: %d rows, want %d", tc.name, n, tc.rows)
		}
		if allocs > tc.maxAllocs {
			t.Errorf("%s: %.0f allocations per Match, want at most %.0f", tc.name, allocs, tc.maxAllocs)
		}
	}
}
