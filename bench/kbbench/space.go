package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"kbharvest/internal/core"
	"kbharvest/internal/rdf"
	"kbharvest/internal/serve"
)

// query is one distinct request of the space.
type query struct {
	id       int
	class    string
	lines    []string // patterns in wire syntax
	limit    int
	routable bool   // also sent through kbrouter
	body     []byte // the POST /query body
}

// space is every distinct query a workload can draw, enumerated from
// the snapshot the servers load, so the programs only ever see
// generated inputs.
type space struct {
	all      []*query // index = query id; the join_full queries come last
	mixed    []int    // every drawable id, seed-shuffled
	routable []int    // the routable subset, in the same order
	joins    []int    // the three analytic join_full queries
}

// The analytic class: fixed unbound joins with no limit.
var joinFull = [][]string{
	{"?a <kb:acquired> ?b", "?b <kb:locatedIn> ?city"},
	{"?c <kb:created> ?x", "?c <kb:locatedIn> ?city"},
	{"?p <kb:founded> ?c", "?c <kb:locatedIn> ?city"},
}

const (
	relWorksAt   = "kb:worksAt"
	relLocatedIn = "kb:locatedIn"
	relBornIn    = "kb:bornIn"
	relType      = "rdf:type"
)

func iri(v string) string { return "<" + v + ">" }

// sortedKeys returns the keys of a set in order, so enumeration does
// not depend on map iteration.
func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// newSpace enumerates the query classes of bench/README.md over st and
// shuffles them with the seed.
func newSpace(st *core.Store, seed int64) (*space, error) {
	subjects := map[string]bool{}
	objects := map[string]bool{}
	people := map[string]bool{}
	companies := map[string]bool{}
	cities := map[string]bool{}
	born := map[string]bool{}
	relations := map[string]bool{}
	worksAt := map[[2]string]bool{}
	types := map[string][]string{} // class -> members
	st.MatchFunc(rdf.Triple{}, func(_ core.FactID, t rdf.Triple) bool {
		subjects[t.S.Value] = true
		if t.O.IsIRI() {
			objects[t.O.Value] = true
		}
		if strings.HasPrefix(t.P.Value, "kb:") {
			relations[t.P.Value] = true
		}
		switch t.P.Value {
		case relWorksAt:
			people[t.S.Value] = true
			companies[t.O.Value] = true
			worksAt[[2]string{t.S.Value, t.O.Value}] = true
		case relBornIn:
			born[t.S.Value] = true
			cities[t.O.Value] = true
		case relType:
			types[t.O.Value] = append(types[t.O.Value], t.S.Value)
		}
		return true
	})
	personClasses := map[string]bool{}
	for class, members := range types {
		for _, m := range members {
			if born[m] {
				personClasses[class] = true
				break
			}
		}
	}
	if len(people) == 0 || len(cities) == 0 || len(companies) < 2 {
		return nil, fmt.Errorf("snapshot has no %s/%s facts to draw queries from", relWorksAt, relBornIn)
	}

	sp := &space{}
	add := func(class string, routable bool, limit int, lines ...string) {
		sp.all = append(sp.all, &query{class: class, lines: lines, limit: limit, routable: routable})
	}
	for _, e := range sortedKeys(subjects) {
		add("point", true, 0, iri(e)+" ?p ?o")
	}
	for _, e := range sortedKeys(objects) {
		add("inbound", true, 0, "?s ?p "+iri(e))
	}
	companyList := sortedKeys(companies)
	pairs := make([][2]string, 0, len(worksAt))
	for p := range worksAt {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	for i, p := range pairs {
		add("ask", true, 0, iri(p[0])+" "+iri(relWorksAt)+" "+iri(p[1]))
		// The matching false pair: the same person at the next company
		// they do not work at.
		for k := 1; k <= len(companyList); k++ {
			c := companyList[(i+k)%len(companyList)]
			if !worksAt[[2]string{p[0], c}] {
				add("ask", true, 0, iri(p[0])+" "+iri(relWorksAt)+" "+iri(c))
				break
			}
		}
	}
	peopleList := sortedKeys(people)
	cityList := sortedKeys(cities)
	for _, e := range peopleList {
		hop1 := iri(e) + " " + iri(relWorksAt) + " ?c"
		hop2 := "?c " + iri(relLocatedIn) + " ?city"
		add("chain2", true, 0, hop1, hop2)
		add("chain3", true, 0, hop1, hop2, "?city "+iri(relLocatedIn)+" ?country")
		// kbrouter fixes its join order from unsubstituted estimates, so
		// this 3-pattern join degenerates into a cross product there.
		add("coworkers", false, 0, hop1, "?q "+iri(relWorksAt)+" ?c", "?q "+iri(relBornIn)+" ?city")
	}
	for _, class := range sortedKeys(personClasses) {
		for _, city := range cityList {
			add("star", true, 0, "?p "+iri(relType)+" "+iri(class), "?p "+iri(relBornIn)+" "+iri(city))
		}
	}
	for _, rel := range sortedKeys(relations) {
		add("scan", true, 100, "?a "+iri(rel)+" ?b")
	}
	for _, city := range cityList {
		add("join_city", false, 0,
			"?p "+iri(relBornIn)+" "+iri(city), "?p "+iri(relWorksAt)+" ?c", "?c "+iri(relLocatedIn)+" ?w")
	}

	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(sp.all), func(i, j int) { sp.all[i], sp.all[j] = sp.all[j], sp.all[i] })
	for _, lines := range joinFull {
		add("join_full", true, 0, lines...)
	}
	for i, q := range sp.all {
		q.id = i
		body, err := json.Marshal(serve.QueryRequest{Patterns: q.lines, Limit: q.limit})
		if err != nil {
			return nil, err
		}
		q.body = body
		switch {
		case q.class == "join_full":
			sp.joins = append(sp.joins, i)
		case q.routable:
			sp.routable = append(sp.routable, i)
			sp.mixed = append(sp.mixed, i)
		default:
			sp.mixed = append(sp.mixed, i)
		}
	}
	return sp, nil
}

// drawList is the part of the space a workload draws from.
func (sp *space) drawList(w workloadDef) []int {
	ids := sp.mixed
	if w.routed() {
		ids = sp.routable
	}
	if w.hot && len(ids) > hotSet {
		ids = ids[:hotSet]
	}
	return ids
}

// sequence is one client's deterministic request stream.
type sequence struct {
	rng   *rand.Rand
	zipf  *rand.Zipf // nil draws uniformly
	ids   []int
	joins []int
	n     int // requests drawn so far
	turn  int // which join_full is next
}

// newSequence seeds the stream of one client of one workload. stream
// separates the warm-up draws from the window's.
func (sp *space) newSequence(w workloadDef, seed int64, client, stream int) *sequence {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(client)*101 + int64(stream)))
	s := &sequence{rng: rng, ids: sp.drawList(w), joins: sp.joins, turn: client}
	if w.hot {
		s.zipf = rand.NewZipf(rng, zipfS, zipfV, uint64(len(s.ids)-1))
	}
	return s
}

// next places the analytic joins on a fixed schedule, every
// joinFullEvery-th request and the three in turn, because one of them
// costs the router as much as a few hundred entity queries: drawn at
// random, their number and mix in a window would decide its throughput.
func (s *sequence) next() int {
	s.n++
	if s.n%joinFullEvery == 0 {
		s.turn++
		return s.joins[s.turn%len(s.joins)]
	}
	if s.zipf != nil {
		return s.ids[s.zipf.Uint64()]
	}
	return s.ids[s.rng.Intn(len(s.ids))]
}

// take returns the next n ids of the stream.
func (s *sequence) take(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

// warmupIDs is what every client sends before the window, split across
// the clients: the hot workloads touch their whole draw list and the
// joins once, the uniform ones send w.warmup draws of their own stream.
func (sp *space) warmupIDs(w workloadDef, seed int64) [][]int {
	var ids []int
	if w.hot {
		ids = append(append(ids, sp.drawList(w)...), sp.joins...)
	} else {
		ids = sp.newSequence(w, seed, 0, 1).take(w.warmup)
	}
	out := make([][]int, clients)
	for i, id := range ids {
		out[i%clients] = append(out[i%clients], id)
	}
	return out
}
