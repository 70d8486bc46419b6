package experiments

import (
	"kbharvest/internal/core"
	"kbharvest/internal/rdf"
	"kbharvest/internal/synth"
)

// ServingWorkload builds the serving store and a skewed query mix over
// it: two-pattern joins plus single-pattern lookups across the world's
// relations, the shapes a QA front-end issues. It backs E16 and is
// exported so the kbrouter tests can cross-check scatter/gather answers
// against the same suite on a single merged store. (Serving speed itself
// is measured by bench/, not here.)
func ServingWorkload(seed int64) (*core.Store, [][]core.Pattern) {
	w, _ := standardWorld(seed)
	st := core.NewStore()
	for _, f := range w.Facts {
		st.Add(rdf.T(f.S, f.P, f.O))
	}
	queries := [][]core.Pattern{
		{ // who founded a company, and where is it
			{S: core.PVar("p"), P: core.PIRI(synth.RelFounded), O: core.PVar("c")},
			{S: core.PVar("c"), P: core.PIRI(synth.RelLocatedIn), O: core.PVar("city")},
		},
		{ // employees of companies with a CEO
			{S: core.PVar("ceo"), P: core.PIRI(synth.RelCEOOf), O: core.PVar("c")},
			{S: core.PVar("p"), P: core.PIRI(synth.RelWorksAt), O: core.PVar("c")},
		},
		{ // birthplaces of prize winners
			{S: core.PVar("p"), P: core.PIRI(synth.RelWonPrize), O: core.PVar("prize")},
			{S: core.PVar("p"), P: core.PIRI(synth.RelBornIn), O: core.PVar("city")},
		},
		{ // single-pattern lookup
			{S: core.PVar("p"), P: core.PIRI(synth.RelMarriedTo), O: core.PVar("q")},
		},
	}
	return st, queries
}
