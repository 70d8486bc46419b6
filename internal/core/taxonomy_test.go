package core

import (
	"reflect"
	"testing"

	"kbharvest/internal/rdf"
)

// buildTaxonomy creates the small class hierarchy used across these tests:
//
//	entity
//	  person
//	    scientist
//	      physicist
//	    entrepreneur
//	  organization
//	    company
func buildTaxonomy() *Store {
	st := NewStore()
	st.Add(rdf.T("person", rdf.RDFSSubClassOf, "entity"))
	st.Add(rdf.T("scientist", rdf.RDFSSubClassOf, "person"))
	st.Add(rdf.T("physicist", rdf.RDFSSubClassOf, "scientist"))
	st.Add(rdf.T("entrepreneur", rdf.RDFSSubClassOf, "person"))
	st.Add(rdf.T("organization", rdf.RDFSSubClassOf, "entity"))
	st.Add(rdf.T("company", rdf.RDFSSubClassOf, "organization"))
	st.AddType("einstein", "physicist")
	st.AddType("jobs", "entrepreneur")
	st.AddType("curie", "physicist")
	st.AddType("curie", "scientist")
	st.AddType("apple", "company")
	return st
}

func TestDirectTypes(t *testing.T) {
	st := buildTaxonomy()
	got := st.DirectTypes("curie")
	if len(got) != 2 {
		t.Errorf("DirectTypes(curie) = %v", got)
	}
	if got := st.DirectTypes("nobody"); len(got) != 0 {
		t.Errorf("DirectTypes(nobody) = %v", got)
	}
}

func TestTypesTransitive(t *testing.T) {
	st := buildTaxonomy()
	want := []string{"entity", "person", "physicist", "scientist"}
	if got := st.Types("einstein"); !reflect.DeepEqual(got, want) {
		t.Errorf("Types(einstein) = %v, want %v", got, want)
	}
}

func TestIsA(t *testing.T) {
	st := buildTaxonomy()
	cases := []struct {
		e, c string
		want bool
	}{
		{"einstein", "physicist", true},
		{"einstein", "scientist", true},
		{"einstein", "person", true},
		{"einstein", "entity", true},
		{"einstein", "entrepreneur", false},
		{"einstein", "company", false},
		{"apple", "organization", true},
		{"apple", "person", false},
	}
	for _, c := range cases {
		if got := st.IsA(c.e, c.c); got != c.want {
			t.Errorf("IsA(%s, %s) = %v, want %v", c.e, c.c, got, c.want)
		}
	}
}

func TestSuperSubclasses(t *testing.T) {
	st := buildTaxonomy()
	if got := st.Superclasses("physicist"); !reflect.DeepEqual(got, []string{"entity", "person", "scientist"}) {
		t.Errorf("Superclasses(physicist) = %v", got)
	}
	if got := st.Subclasses("person"); !reflect.DeepEqual(got, []string{"entrepreneur", "physicist", "scientist"}) {
		t.Errorf("Subclasses(person) = %v", got)
	}
	if got := st.Subclasses("physicist"); len(got) != 0 {
		t.Errorf("Subclasses(physicist) = %v", got)
	}
}

func TestSubclassCycleTolerated(t *testing.T) {
	st := NewStore()
	st.Add(rdf.T("a", rdf.RDFSSubClassOf, "b"))
	st.Add(rdf.T("b", rdf.RDFSSubClassOf, "c"))
	st.Add(rdf.T("c", rdf.RDFSSubClassOf, "a")) // cycle
	got := st.Superclasses("a")
	// Must terminate; a's supers are b, c (and a itself is excluded).
	if len(got) != 2 {
		t.Errorf("Superclasses in cycle = %v", got)
	}
	st.AddType("x", "a")
	types := st.Types("x")
	if len(types) != 3 {
		t.Errorf("Types through cycle = %v", types)
	}
}

func TestInstances(t *testing.T) {
	st := buildTaxonomy()
	if got := st.Instances("scientist"); !reflect.DeepEqual(got, []string{"curie", "einstein"}) {
		t.Errorf("Instances(scientist) = %v", got)
	}
	if got := st.Instances("person"); !reflect.DeepEqual(got, []string{"curie", "einstein", "jobs"}) {
		t.Errorf("Instances(person) = %v", got)
	}
	if got := st.DirectInstances("person"); len(got) != 0 {
		t.Errorf("DirectInstances(person) = %v", got)
	}
	if got := st.Instances("entity"); len(got) != 4 {
		t.Errorf("Instances(entity) = %v", got)
	}
}
