package core

import (
	"sort"

	"kbharvest/internal/rdf"
)

// Taxonomy operations over rdf:type and rdfs:subClassOf. Every entity in a
// KB belongs to one or more classes, organized into a subsumption taxonomy
// (§2 "Harvesting Knowledge on Entities and Classes"); these helpers give
// the store the class-reasoning primitives (transitive closure, inherited
// instance sets) that downstream modules rely on: type checking during
// consistency reasoning, class features in NED, and type signatures in
// rule mining.

// AddType asserts (entity rdf:type class).
func (st *Store) AddType(entity, class string) FactID {
	return st.Add(rdf.T(entity, rdf.RDFType, class))
}

// DirectTypes returns the directly asserted classes of an entity.
func (st *Store) DirectTypes(entity string) []string {
	return iriValues(st.Objects(entity, rdf.RDFType))
}

// Types returns all classes of an entity, including those inherited
// through rdfs:subClassOf, in deterministic (sorted) order.
func (st *Store) Types(entity string) []string {
	seen := make(map[string]bool)
	var frontier []string
	for _, c := range st.DirectTypes(entity) {
		if !seen[c] {
			seen[c] = true
			frontier = append(frontier, c)
		}
	}
	for len(frontier) > 0 {
		c := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for _, super := range iriValues(st.Objects(c, rdf.RDFSSubClassOf)) {
			if !seen[super] {
				seen[super] = true
				frontier = append(frontier, super)
			}
		}
	}
	return sortedSet(seen)
}

// IsA reports whether entity is an instance of class, directly or through
// the subclass hierarchy.
func (st *Store) IsA(entity, class string) bool {
	for _, c := range st.Types(entity) {
		if c == class {
			return true
		}
	}
	return false
}

// Superclasses returns every (transitive) superclass of a class, excluding
// the class itself, in sorted order. Cycles are tolerated.
func (st *Store) Superclasses(class string) []string {
	seen := make(map[string]bool)
	frontier := []string{class}
	for len(frontier) > 0 {
		c := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for _, super := range iriValues(st.Objects(c, rdf.RDFSSubClassOf)) {
			if super != class && !seen[super] {
				seen[super] = true
				frontier = append(frontier, super)
			}
		}
	}
	return sortedSet(seen)
}

// Subclasses returns every (transitive) subclass of a class, excluding the
// class itself, in sorted order.
func (st *Store) Subclasses(class string) []string {
	seen := make(map[string]bool)
	frontier := []string{class}
	for len(frontier) > 0 {
		c := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for _, sub := range iriValues(st.Subjects(rdf.RDFSSubClassOf, c)) {
			if sub != class && !seen[sub] {
				seen[sub] = true
				frontier = append(frontier, sub)
			}
		}
	}
	return sortedSet(seen)
}

// DirectInstances returns entities directly typed with the class.
func (st *Store) DirectInstances(class string) []string {
	return iriValues(st.Subjects(rdf.RDFType, class))
}

// Instances returns all entities of a class, including instances of its
// transitive subclasses, in sorted order.
func (st *Store) Instances(class string) []string {
	seen := make(map[string]bool)
	classes := append([]string{class}, st.Subclasses(class)...)
	for _, c := range classes {
		for _, e := range st.DirectInstances(c) {
			seen[e] = true
		}
	}
	return sortedSet(seen)
}

func iriValues(ts []rdf.Term) []string {
	out := make([]string, 0, len(ts))
	for _, t := range ts {
		if t.IsIRI() {
			out = append(out, t.Value)
		}
	}
	return out
}

func sortedSet(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for s := range m {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}
