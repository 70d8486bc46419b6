package experiments

import (
	"fmt"
	"time"

	"kbharvest/internal/eval"
	"kbharvest/internal/extract"
	"kbharvest/internal/extract/distant"
	"kbharvest/internal/extract/patterns"
	"kbharvest/internal/factorgraph"
	"kbharvest/internal/pipeline"
	"kbharvest/internal/reason"
	"kbharvest/internal/synth"
	"kbharvest/internal/taxonomy"
)

// E1Taxonomy — §2: Wikipedia category analysis assigns classes with high
// accuracy, and it scales linearly with article count.
func E1Taxonomy() []*eval.Table {
	tab := eval.NewTable("E1: taxonomy induction from category systems (sweep world scale)",
		"articles", "type-P", "type-R", "subcls-P", "subcls-R", "ms")
	for _, scale := range []float64{0.25, 0.5, 1.0, 2.0} {
		cfg := synth.Config{
			People: 200, Companies: 50, Cities: 25, Countries: 6,
			Universities: 15, Products: 40, Prizes: 10,
		}.Scaled(scale)
		w := synth.Generate(cfg, 101)
		corpus := synth.BuildCorpus(w, synth.DefaultCorpusOptions())
		var pages []taxonomy.Page
		for _, a := range corpus.Articles {
			pages = append(pages, taxonomy.Page{Subject: a.Subject, Categories: a.Categories})
		}
		t0 := time.Now()
		typeFacts := taxonomy.HarvestTypes(pages)
		edges := taxonomy.InduceSubclasses(corpus.CategoryParents)
		dur := time.Since(t0)

		pred := map[string]bool{}
		for _, tf := range typeFacts {
			pred[tf.Entity+"|"+tf.ClassNoun] = true
		}
		gold := map[string]bool{}
		for _, e := range w.Entities {
			gold[e.ID+"|"+synth.ClassNoun(e.Class)] = true
			for _, super := range w.Truth.Superclasses(e.Class) {
				if n := synth.ClassNoun(super); n != "" {
					gold[e.ID+"|"+n] = true
				}
			}
		}
		// Recall against most-specific classes only.
		specific := map[string]bool{}
		for _, e := range w.Entities {
			specific[e.ID+"|"+synth.ClassNoun(e.Class)] = true
		}
		typeScore := eval.SetPRF(pred, gold)
		recallSpecific := eval.SetPRF(pred, specific)

		edgePred := map[string]bool{}
		for _, e := range edges {
			edgePred[e.Sub+"<"+e.Super] = true
		}
		edgeGold := map[string]bool{}
		for _, pair := range w.TaxonomyPairs() {
			sub, super := synth.ClassNoun(pair[0]), synth.ClassNoun(pair[1])
			if sub != "" && super != "" {
				if _, ok := corpus.CategoryParents[synth.CategoryForClass(pair[0])]; ok {
					edgeGold[sub+"<"+super] = true
				}
			}
		}
		edgeScore := eval.SetPRF(edgePred, edgeGold)
		tab.AddRow(len(corpus.Articles), typeScore.Precision, recallSpecific.Recall,
			edgeScore.Precision, edgeScore.Recall, float64(dur.Milliseconds()))
	}
	return []*eval.Table{tab}
}

// E2SetExpansion — §2: Web set expansion grows classes from 3 seeds.
func E2SetExpansion() []*eval.Table {
	w, _ := standardWorld(102)
	pages := synth.BuildWebPages(w, 12, 103)
	var lists []taxonomy.ItemList
	for _, p := range pages {
		if len(p.Items) > 0 {
			lists = append(lists, taxonomy.ItemList{Source: p.URL, Items: p.Items})
		}
	}
	tab := eval.NewTable("E2: set expansion precision@k from 3 seeds",
		"class", "candidates", "P@5", "P@10", "P@20")
	classes := []string{synth.ClassPhysicist, synth.ClassChemist, synth.ClassEntrepreneur, synth.ClassMusician, synth.ClassCompany}
	for _, class := range classes {
		var seeds []string
		gold := map[string]bool{}
		for _, e := range w.Entities {
			if e.Class != class {
				continue
			}
			if len(seeds) < 3 {
				seeds = append(seeds, e.Name)
			} else {
				gold[e.Name] = true
			}
		}
		if len(seeds) < 3 {
			continue
		}
		cands := taxonomy.Expand(seeds, lists, 1)
		ranked := make([]string, len(cands))
		for i, c := range cands {
			ranked[i] = c.Item
		}
		tab.AddRow(synth.ClassNoun(class), len(cands),
			eval.PrecisionAtK(ranked, gold, 5),
			eval.PrecisionAtK(ranked, gold, 10),
			eval.PrecisionAtK(ranked, gold, 20))
	}
	// Hearst-pattern harvesting on the prose pages, as the second method
	// family of §2.
	hearst := eval.NewTable("E2b: Hearst-pattern class harvesting", "facts", "accuracy")
	correct, total := 0, 0
	for _, p := range pages {
		if len(p.Items) > 0 {
			continue
		}
		for _, f := range taxonomy.ExtractHearst(p.Text) {
			total++
			e := w.EntityByName(f.Instance)
			if e == nil {
				continue
			}
			if synth.ClassNoun(e.Class) == f.ClassNoun {
				correct++
				continue
			}
			for _, super := range w.Truth.Superclasses(e.Class) {
				if synth.ClassNoun(super) == f.ClassNoun {
					correct++
					break
				}
			}
		}
	}
	hearst.AddRow(total, eval.Accuracy(correct, total))
	return []*eval.Table{tab, hearst}
}

// E3Bootstrap — §3: DIPRE-style bootstrapping; precision decays and
// recall grows per iteration.
func E3Bootstrap() []*eval.Table {
	w, corpus := standardWorld(104)
	sents := extract.SplitDocs(pipeline.Docs(corpus))
	gold := goldFactsOfRel(w, synth.RelFounded)
	var seeds []patterns.Pair
	for _, f := range w.FactsOf(synth.RelFounded) {
		seeds = append(seeds, patterns.Pair{S: f.S, O: f.O})
		if len(seeds) == 5 {
			break
		}
	}
	tab := eval.NewTable("E3: bootstrap harvesting of kb:founded from 5 seeds (per cumulative iteration)",
		"iterations", "patterns", "facts", "precision", "recall")
	for iters := 1; iters <= 4; iters++ {
		res := patterns.Bootstrap(sents, synth.RelFounded, seeds, patterns.BootstrapConfig{
			Iterations: iters, MinPatternSupport: 2, MinPatternConfidence: 0.02, MaxNewPatterns: 2,
		})
		score := scoreCandidates(res.Facts, gold)
		tab.AddRow(iters, len(res.Patterns), len(res.Facts), score.Precision, score.Recall)
	}
	return []*eval.Table{tab}
}

// basicPatterns is the hand-written rule set a first pass of pattern
// engineering would produce: the primary verb of each relation, none of
// the paraphrases ("established", "studied at", "is based in", ...). Real
// hand-pattern sets are always incomplete in exactly this way; distant
// supervision's advantage is learning the paraphrases from data.
func basicPatterns() []patterns.SurfacePattern {
	return []patterns.SurfacePattern{
		{Rel: synth.RelFounded, Middle: "founded"},
		{Rel: synth.RelFounded, Middle: "was founded by", Inverted: true},
		{Rel: synth.RelBornIn, Middle: "was born in"},
		{Rel: synth.RelAcquired, Middle: "acquired"},
		{Rel: synth.RelLocatedIn, Middle: "is located in"},
		{Rel: synth.RelMarriedTo, Middle: "married"},
		{Rel: synth.RelGraduatedFrom, Middle: "graduated from"},
		{Rel: synth.RelWorksAt, Middle: "worked at"},
		{Rel: synth.RelWonPrize, Middle: "won the"},
		{Rel: synth.RelCEOOf, Middle: "served as ceo of"},
		{Rel: synth.RelCreated, Middle: "released the"},
	}
}

// E4DistantSupervision — §3: statistical learning vs hand patterns.
func E4DistantSupervision() []*eval.Table {
	w, corpus := standardWorld(105)
	sents := extract.SplitDocs(pipeline.Docs(corpus))
	half := len(sents) / 2
	train, test := sents[:half], sents[half:]
	rels := []string{
		synth.RelFounded, synth.RelBornIn, synth.RelAcquired, synth.RelLocatedIn,
		synth.RelMarriedTo, synth.RelGraduatedFrom, synth.RelWorksAt,
		synth.RelWonPrize, synth.RelCEOOf, synth.RelCreated,
	}
	kbLabel := func(s, o string) (string, bool) {
		for _, rel := range rels {
			if w.HasFact(s, rel, o) {
				return rel, true
			}
		}
		return "", false
	}
	trainInsts := distant.BuildInstances(train, kbLabel, 2)
	testInsts := distant.BuildInstances(test, kbLabel, 1)
	gold := map[string]bool{}
	for _, in := range testInsts {
		if in.Label != distant.NoneLabel {
			gold[in.S+"\x00"+in.Label+"\x00"+in.O] = true
		}
	}
	perceptron := distant.TrainPerceptron(trainInsts, 5, 3)
	bayes := distant.TrainNaiveBayes(trainInsts)

	basicCands := patterns.Apply(test, basicPatterns())
	fullCands := patterns.Apply(test, patterns.DefaultPatterns())
	percCands := distant.ExtractWithModel(testInsts, perceptron)
	bayesCands := distant.ExtractWithModel(testInsts, bayes)

	tab := eval.NewTable("E4: extraction on held-out half (micro P/R/F1 over 10 relations)",
		"method", "predicted", "P", "R", "F1")
	for _, row := range []struct {
		name  string
		cands []extract.Candidate
	}{
		{"hand patterns (basic set)", basicCands},
		{"hand patterns (tuned set)", fullCands},
		{"perceptron (distant)", percCands},
		{"naive bayes (distant)", bayesCands},
	} {
		s := scoreCandidates(row.cands, gold)
		tab.AddRow(row.name, len(row.cands), s.Precision, s.Recall, s.F1)
	}
	return []*eval.Table{tab}
}

// E5FactorGraph — §3: DeepDive-style joint inference vs independent
// thresholding on correlated candidates. The candidate set is the pattern
// extractor's output plus simulated sloppy-extractor noise (see
// injectNoise); corroboration across source articles and functional-
// relation exclusion are the correlations the factor graph exploits.
func E5FactorGraph() []*eval.Table {
	w, corpus := standardWorld(106)
	sents := extract.SplitDocs(pipeline.Docs(corpus))
	raw := injectNoise(w, patterns.Apply(sents, patterns.DefaultPatterns()), 0.45, 601)
	gold := goldFactSet(w)

	// Dedupe by fact key, tracking distinct sources and max confidence.
	type agg struct {
		cand    extract.Candidate
		sources map[string]bool
	}
	byKey := map[string]*agg{}
	var order []string
	for _, c := range raw {
		a, ok := byKey[c.Key()]
		if !ok {
			a = &agg{cand: c, sources: map[string]bool{}}
			byKey[c.Key()] = a
			order = append(order, c.Key())
		}
		if c.Confidence > a.cand.Confidence {
			a.cand.Confidence = c.Confidence
		}
		a.sources[c.Source] = true
	}
	cands := make([]extract.Candidate, len(order))
	for i, k := range order {
		cands[i] = byKey[k].cand
	}

	wellTyped := func(c extract.Candidate) bool {
		schema, ok := synth.SchemaOf(c.P)
		if !ok {
			return true
		}
		return w.Truth.IsA(c.S, schema.Domain) && w.Truth.IsA(c.O, schema.Range)
	}
	g := factorgraph.NewGraph()
	vars := make([]int, len(cands))
	bySP := map[string][]int{}
	for i, c := range cands {
		vars[i] = g.AddVariable(c.Key())
		prior := 0.25 + 0.5*c.Confidence
		if err := g.AddPrior(vars[i], prior); err != nil {
			panic(err)
		}
		// Type-signature rule factor (soft): ill-typed candidates are
		// strongly disfavored.
		if !wellTyped(c) {
			if err := g.AddPrior(vars[i], 0.05); err != nil {
				panic(err)
			}
		}
		// Corroboration: each extra distinct source is independent
		// positive evidence.
		if n := len(byKey[c.Key()].sources); n > 1 {
			if err := g.AddPrior(vars[i], 0.5+0.15*float64(n)); err != nil {
				panic(err)
			}
		}
		bySP[c.S+"|"+c.P] = append(bySP[c.S+"|"+c.P], i)
	}
	functional := map[string]bool{}
	for _, s := range synth.Schema {
		if s.Functional {
			functional[s.ID] = true
		}
	}
	for _, idxs := range bySP {
		for i := 0; i < len(idxs); i++ {
			if !functional[cands[idxs[i]].P] {
				continue
			}
			for j := i + 1; j < len(idxs); j++ {
				if cands[idxs[i]].O != cands[idxs[j]].O {
					if err := g.AddMutex(vars[idxs[i]], vars[idxs[j]], 5); err != nil {
						panic(err)
					}
				}
			}
		}
	}
	marg := g.Gibbs(100, 800, 9)

	tab := eval.NewTable("E5: factor-graph marginals vs independent acceptance (noisy candidates)",
		"method", "accepted", "P", "R", "F1")
	var indep []extract.Candidate
	for _, c := range cands {
		if c.Confidence >= 0.5 {
			indep = append(indep, c)
		}
	}
	sIndep := scoreCandidates(indep, gold)
	tab.AddRow("independent (confidence >= 0.5)", len(indep), sIndep.Precision, sIndep.Recall, sIndep.F1)
	var joint []extract.Candidate
	for i, c := range cands {
		if marg[vars[i]] >= 0.5 {
			joint = append(joint, c)
		}
	}
	sJoint := scoreCandidates(joint, gold)
	tab.AddRow("factor graph (Gibbs marginals)", len(joint), sJoint.Precision, sJoint.Recall, sJoint.F1)
	return []*eval.Table{tab}
}

// E6Reasoning — §3: weighted MaxSat consistency reasoning; solver
// comparison.
func E6Reasoning() []*eval.Table {
	w, corpus := standardWorld(107)
	sents := extract.SplitDocs(pipeline.Docs(corpus))
	cands := injectNoise(w, patterns.Apply(sents, patterns.DefaultPatterns()), 0.45, 602)
	gold := goldFactSet(w)

	rules := reason.ConsistencyRules{
		Functional: map[string]bool{},
		TypeCheck: func(c extract.Candidate) bool {
			schema, ok := synth.SchemaOf(c.P)
			if !ok {
				return true
			}
			return w.Truth.IsA(c.S, schema.Domain) && w.Truth.IsA(c.O, schema.Range)
		},
	}
	for _, s := range synth.Schema {
		if s.Functional {
			rules.Functional[s.ID] = true
		}
	}
	tab := eval.NewTable("E6: consistency reasoning over noisy candidates",
		"method", "accepted", "P", "R", "F1", "ms")
	raw := scoreCandidates(cands, gold)
	tab.AddRow("no reasoning (raw)", len(cands), raw.Precision, raw.Recall, raw.F1, 0.0)

	cp := reason.BuildConsistency(cands, rules)
	t0 := time.Now()
	greedy := cp.SolveGreedy()
	greedyMS := float64(time.Since(t0).Microseconds()) / 1000
	accG := cp.Accepted(greedy)
	sG := scoreCandidates(accG, gold)
	tab.AddRow("greedy repair", len(accG), sG.Precision, sG.Recall, sG.F1, greedyMS)

	t0 = time.Now()
	walk := cp.SolveWalkSAT(4*len(cands)+1000, 0.2, 11)
	walkMS := float64(time.Since(t0).Microseconds()) / 1000
	accW := cp.Accepted(walk)
	sW := scoreCandidates(accW, gold)
	tab.AddRow("weighted WalkSAT", len(accW), sW.Precision, sW.Recall, sW.F1, walkMS)

	// Exhaustive on a small core validates the heuristics.
	small := cands
	if len(small) > 14 {
		small = small[:14]
	}
	cpS := reason.BuildConsistency(small, rules)
	t0 = time.Now()
	exact, err := cpS.SolveExhaustive()
	if err == nil {
		exactMS := float64(time.Since(t0).Microseconds()) / 1000
		accE := cpS.Accepted(exact)
		sE := scoreCandidates(accE, goldSubset(gold, small))
		tab.AddRow(fmt.Sprintf("exhaustive (first %d vars)", len(small)), len(accE), sE.Precision, sE.Recall, sE.F1, exactMS)
	}
	return []*eval.Table{tab}
}

func goldSubset(gold map[string]bool, cands []extract.Candidate) map[string]bool {
	out := map[string]bool{}
	for _, c := range cands {
		if gold[c.Key()] {
			out[c.Key()] = true
		}
	}
	return out
}
