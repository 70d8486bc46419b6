// Package experiments implements the reproduction's benchmark harness:
// one function per experiment (E1–E15), each regenerating its tables.
// cmd/benchrunner prints them all; bench_test.go wraps each in a
// testing.B benchmark.
//
// The source paper is a tutorial without numbered tables, so each
// experiment reproduces a named claim of the tutorial (the Claim string
// of its entry in All()). The tests check each claim's *shape* — which
// method wins and roughly by how much — and pin every number that does
// not measure the machine: testdata/<ID>.golden holds each experiment's
// tables with the ms, docs/s and speedup cells masked, so any drift in
// a paper number fails. Every experiment is seeded and gives the same
// tables at any GOMAXPROCS.
package experiments

import (
	"kbharvest/internal/eval"
	"kbharvest/internal/extract"
	"kbharvest/internal/synth"
)

// Experiment is one runnable experiment.
type Experiment struct {
	ID    string
	Claim string
	Run   func() []*eval.Table
}

// All returns every experiment in order.
func All() []Experiment {
	return []Experiment{
		{"E1", "category analysis yields accurate classes at scale", E1Taxonomy},
		{"E2", "set expansion grows classes from seeds", E2SetExpansion},
		{"E3", "bootstrapping trades precision for recall over iterations", E3Bootstrap},
		{"E4", "distant supervision beats raw patterns on paraphrases", E4DistantSupervision},
		{"E5", "joint factor-graph inference beats independent decisions", E5FactorGraph},
		{"E6", "consistency reasoning lifts precision", E6Reasoning},
		{"E7", "open IE constraints cut incoherent extractions", E7OpenIE},
		{"E8", "map-reduce extraction scales with workers", E8MapReduce},
		{"E9", "frequent sequence mining finds relation phrases", E9SequenceMining},
		{"E10", "temporal scoping recovers fact validity intervals", E10Temporal},
		{"E11", "multilingual name alignment links editions", E11Multilingual},
		{"E12", "commonsense rules are minable from the KB", E12RuleMining},
		{"E13", "NED: coherence+context beat prior", E13NED},
		{"E14", "linkage: learning + blocking", E14Linkage},
		{"E15", "knowledge-centric brand tracking", E15BrandTracking},
	}
}

// ByID returns one experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// standardWorld is the shared evaluation world. Sized so every experiment
// finishes in seconds while keeping hundreds of entities and thousands of
// mentions.
func standardWorld(seed int64) (*synth.World, *synth.Corpus) {
	cfg := synth.Config{
		People: 200, Companies: 50, Cities: 25, Countries: 6,
		Universities: 15, Products: 40, Prizes: 10,
	}
	w := synth.Generate(cfg, seed)
	return w, synth.BuildCorpus(w, synth.DefaultCorpusOptions())
}

// goldFactSet returns the world's relation facts as a key set.
func goldFactSet(w *synth.World) map[string]bool {
	gold := make(map[string]bool, len(w.Facts))
	for _, f := range w.Facts {
		gold[f.S+"\x00"+f.P+"\x00"+f.O] = true
	}
	return gold
}

func candidateKeys(cands []extract.Candidate) map[string]bool {
	out := make(map[string]bool, len(cands))
	for _, c := range cands {
		out[c.Key()] = true
	}
	return out
}

func scoreCandidates(cands []extract.Candidate, gold map[string]bool) eval.PRF {
	return eval.SetPRF(candidateKeys(cands), gold)
}

// goldFactsOfRel filters the gold set by relation.
func goldFactsOfRel(w *synth.World, rel string) map[string]bool {
	gold := map[string]bool{}
	for _, f := range w.FactsOf(rel) {
		gold[f.S+"\x00"+f.P+"\x00"+f.O] = true
	}
	return gold
}

// injectNoise simulates a sloppier extractor: for a fraction of the true
// candidates it fabricates corrupted variants — same-class object swaps
// (functional-constraint violations) and cross-class swaps (type
// violations) — with mid-range confidences. This is the error profile
// §3's consistency reasoning and joint inference exist to clean up; the
// clean template corpus alone is too easy to show the effect.
func injectNoise(w *synth.World, cands []extract.Candidate, rate float64, seed int64) []extract.Candidate {
	rng := newDetRand(seed)
	out := append([]extract.Candidate(nil), cands...)
	pools := map[string][]*synth.Entity{
		synth.ClassCity:       w.Cities,
		synth.ClassCompany:    w.Companies,
		synth.ClassUniversity: w.Universities,
		synth.ClassPerson:     w.People,
		synth.ClassProduct:    w.Products,
		synth.ClassAward:      w.Prizes,
	}
	classOf := func(id string) string {
		e, ok := w.ByID[id]
		if !ok {
			return ""
		}
		for base := range pools {
			if w.Truth.IsA(id, base) {
				return base
			}
		}
		return e.Class
	}
	for _, c := range cands {
		if rng.Float64() >= rate {
			continue
		}
		cls := classOf(c.O)
		pool := pools[cls]
		if len(pool) < 2 {
			continue
		}
		if rng.Float64() < 0.5 {
			// Same-class swap: plausible but wrong object.
			swap := pool[rng.Intn(len(pool))]
			if swap.ID == c.O || w.HasFact(c.S, c.P, swap.ID) {
				continue
			}
			out = append(out, extract.Candidate{
				S: c.S, P: c.P, O: swap.ID,
				Confidence: 0.55 + 0.3*rng.Float64(),
				Source:     "noisy-extractor",
			})
		} else {
			// Cross-class swap: type-violating object.
			other := w.People
			if cls == synth.ClassPerson {
				other = w.Cities
			}
			swap := other[rng.Intn(len(other))]
			out = append(out, extract.Candidate{
				S: c.S, P: c.P, O: swap.ID,
				Confidence: 0.55 + 0.3*rng.Float64(),
				Source:     "noisy-extractor",
			})
		}
	}
	return out
}
