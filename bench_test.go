package kbharvest

// The benchmark harness: one testing.B benchmark per experiment of
// experiments.All() (each regenerates its table once per iteration),
// followed by micro-benchmarks for the core data structures and an index
// ablation. Serving and build performance are measured by kbbench, not
// here: see bench/README.md.
//
// Run with: go test -bench=. -benchmem

import (
	"context"
	"fmt"
	"testing"

	"kbharvest/internal/core"
	"kbharvest/internal/experiments"
	"kbharvest/internal/extract"
	"kbharvest/internal/extract/openie"
	"kbharvest/internal/extract/patterns"
	"kbharvest/internal/linkage"
	"kbharvest/internal/ned"
	"kbharvest/internal/parse"
	"kbharvest/internal/pipeline"
	"kbharvest/internal/qcache"
	"kbharvest/internal/rdf"
	"kbharvest/internal/reason"
	"kbharvest/internal/synth"
	"kbharvest/internal/text"
)

// benchExperiment runs one experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	exp, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tabs := exp.Run(); len(tabs) == 0 {
			b.Fatal("experiment produced no tables")
		}
	}
}

func BenchmarkE1TaxonomyInduction(b *testing.B)  { benchExperiment(b, "E1") }
func BenchmarkE2SetExpansion(b *testing.B)       { benchExperiment(b, "E2") }
func BenchmarkE3Bootstrap(b *testing.B)          { benchExperiment(b, "E3") }
func BenchmarkE4DistantSupervision(b *testing.B) { benchExperiment(b, "E4") }
func BenchmarkE5FactorGraph(b *testing.B)        { benchExperiment(b, "E5") }
func BenchmarkE6Reasoning(b *testing.B)          { benchExperiment(b, "E6") }
func BenchmarkE7OpenIE(b *testing.B)             { benchExperiment(b, "E7") }
func BenchmarkE8MapReduceScaling(b *testing.B)   { benchExperiment(b, "E8") }
func BenchmarkE9SequenceMining(b *testing.B)     { benchExperiment(b, "E9") }
func BenchmarkE10Temporal(b *testing.B)          { benchExperiment(b, "E10") }
func BenchmarkE11Multilingual(b *testing.B)      { benchExperiment(b, "E11") }
func BenchmarkE12RuleMining(b *testing.B)        { benchExperiment(b, "E12") }
func BenchmarkE13NED(b *testing.B)               { benchExperiment(b, "E13") }
func BenchmarkE14Linkage(b *testing.B)           { benchExperiment(b, "E14") }
func BenchmarkE15BrandTracking(b *testing.B)     { benchExperiment(b, "E15") }
func BenchmarkE16FaultTolerance(b *testing.B)    { benchExperiment(b, "E16") }

// --- micro-benchmarks -------------------------------------------------

func benchStore(n int) *core.Store {
	st := core.NewStore()
	for i := 0; i < n; i++ {
		st.Add(rdf.T(
			fmt.Sprintf("kb:e%d", i%1000),
			fmt.Sprintf("kb:r%d", i%20),
			fmt.Sprintf("kb:e%d", (i*7)%1000),
		))
	}
	return st
}

func BenchmarkStoreAdd(b *testing.B) {
	b.ReportAllocs()
	st := core.NewStore()
	for i := 0; i < b.N; i++ {
		st.Add(rdf.T(
			fmt.Sprintf("kb:e%d", i%100000),
			fmt.Sprintf("kb:r%d", i%50),
			fmt.Sprintf("kb:e%d", (i*13)%100000),
		))
	}
}

// benchTriples pre-generates n distinct-ish triples so the ingestion
// benchmarks below measure store work, not fmt.Sprintf.
func benchTriples(n int) []rdf.Triple {
	ts := make([]rdf.Triple, n)
	for i := range ts {
		ts[i] = rdf.T(
			fmt.Sprintf("kb:e%d", i%100000),
			fmt.Sprintf("kb:r%d", i%50),
			fmt.Sprintf("kb:e%d", (i/50)%100000+100000),
		)
	}
	return ts
}

// BenchmarkStoreAddBatch compares the batch write path against per-triple
// Add on identical pre-generated input. The /1 case is the per-triple
// baseline; /64 and /1024 go through AddBatch, so ns/op across the
// sub-benchmarks is directly comparable.
func BenchmarkStoreAddBatch(b *testing.B) {
	for _, size := range []int{1, 64, 1024} {
		b.Run(fmt.Sprintf("%d", size), func(b *testing.B) {
			ts := benchTriples(b.N)
			st := core.NewStore()
			b.ReportAllocs()
			b.ResetTimer()
			if size == 1 {
				for _, t := range ts {
					st.Add(t)
				}
				return
			}
			for i := 0; i < len(ts); i += size {
				end := i + size
				if end > len(ts) {
					end = len(ts)
				}
				st.AddBatch(ts[i:end])
			}
		})
	}
}

func BenchmarkStoreMatchSP(b *testing.B) {
	st := benchStore(100000)
	pat := rdf.Triple{S: rdf.NewIRI("kb:e42"), P: rdf.NewIRI("kb:r2")}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Match(pat)
	}
}

func BenchmarkStoreMatchP(b *testing.B) {
	st := benchStore(100000)
	pat := rdf.Triple{P: rdf.NewIRI("kb:r2")}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.MatchFunc(pat, func(core.FactID, rdf.Triple) bool { return true })
	}
}

// BenchmarkStoreIndexAblation compares an indexed (?, p, o) lookup with
// the same query answered by a full scan — the index ablation. Expect
// several orders of magnitude difference.
func BenchmarkStoreIndexAblation(b *testing.B) {
	st := benchStore(100000)
	pat := rdf.Triple{P: rdf.NewIRI("kb:r2"), O: rdf.NewIRI("kb:e7")}
	b.Run("indexed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st.Match(pat)
		}
	})
	b.Run("fullscan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := 0
			st.MatchFunc(rdf.Triple{}, func(_ core.FactID, t rdf.Triple) bool {
				if t.P == pat.P && t.O == pat.O {
					n++
				}
				return true
			})
		}
	})
}

func BenchmarkStoreQueryJoin(b *testing.B) {
	st := benchStore(100000)
	q := []core.Pattern{
		{S: core.PVar("x"), P: core.PIRI("kb:r2"), O: core.PVar("y")},
		{S: core.PVar("y"), P: core.PIRI("kb:r3"), O: core.PVar("z")},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Query(q)
	}
}

// BenchmarkQueryCacheWarm measures the steady-state read path: every
// query is a cache hit validated by per-pattern generation loads.
func BenchmarkQueryCacheWarm(b *testing.B) {
	st := benchStore(100000)
	q := []core.Pattern{
		{S: core.PVar("x"), P: core.PIRI("kb:r2"), O: core.PVar("y")},
		{S: core.PVar("y"), P: core.PIRI("kb:r3"), O: core.PVar("z")},
	}
	c := qcache.New(st, qcache.Options{})
	ctx := context.Background()
	if _, _, err := c.Query(ctx, q, 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, cached, _ := c.Query(ctx, q, 0); !cached {
			b.Fatal("warm benchmark missed the cache")
		}
	}
}

// BenchmarkQueryCacheInvalidated measures the worst case: every hit is
// stale because a write bumped an overlapping generation, forcing a
// re-evaluation plus re-fill each iteration.
func BenchmarkQueryCacheInvalidated(b *testing.B) {
	st := benchStore(100000)
	q := []core.Pattern{
		{S: core.PVar("x"), P: core.PIRI("kb:r2"), O: core.PVar("y")},
		{S: core.PVar("y"), P: core.PIRI("kb:r3"), O: core.PVar("z")},
	}
	c := qcache.New(st, qcache.Options{})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Add(rdf.T(fmt.Sprintf("kb:churn%d", i), "kb:r2", "kb:churn"))
		if _, cached, _ := c.Query(ctx, q, 0); cached {
			b.Fatal("invalidation benchmark hit the cache")
		}
	}
}

const benchSentence = "Steve Jobs founded Apple Computer in Cupertino in 1976 and later released the Nova 3."

func BenchmarkTokenize(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		text.Tokenize(benchSentence)
	}
}

func BenchmarkPOSTag(b *testing.B) {
	toks := text.Tokenize(benchSentence)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		text.Tag(toks)
	}
}

func BenchmarkDependencyParse(b *testing.B) {
	tagged := text.Tag(text.Tokenize(benchSentence))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parse.Parse(tagged)
	}
}

func BenchmarkPorterStem(b *testing.B) {
	words := []string{"relational", "conflated", "acquisitions", "establishes", "university"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		text.Stem(words[i%len(words)])
	}
}

func benchCorpusSentences(b *testing.B) (*synth.World, []extract.Sentence) {
	b.Helper()
	w := synth.Generate(synth.Config{
		People: 100, Companies: 25, Cities: 12, Countries: 4,
		Universities: 8, Products: 20, Prizes: 6,
	}, 301)
	corpus := synth.BuildCorpus(w, synth.DefaultCorpusOptions())
	return w, extract.SplitDocs(pipeline.Docs(corpus))
}

func BenchmarkPatternExtraction(b *testing.B) {
	_, sents := benchCorpusSentences(b)
	pats := patterns.DefaultPatterns()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		patterns.Apply(sents, pats)
	}
}

func BenchmarkOpenIEPerDoc(b *testing.B) {
	w := synth.Generate(synth.Config{
		People: 50, Companies: 12, Cities: 8, Countries: 3,
		Universities: 5, Products: 10, Prizes: 4,
	}, 302)
	corpus := synth.BuildCorpus(w, synth.DefaultCorpusOptions())
	docs := make([]openie.Doc, len(corpus.Articles))
	for i, a := range corpus.Articles {
		docs[i] = openie.Doc{Text: a.Text, Source: a.ID}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		openie.Extract(docs[i%len(docs):i%len(docs)+1], openie.DefaultOptions())
	}
}

func BenchmarkWalkSAT(b *testing.B) {
	_, sents := benchCorpusSentences(b)
	cands := patterns.Apply(sents, patterns.DefaultPatterns())
	rules := reason.ConsistencyRules{Functional: map[string]bool{"kb:bornIn": true, "kb:locatedIn": true}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp := reason.BuildConsistency(cands, rules)
		cp.SolveWalkSAT(2000, 0.2, int64(i))
	}
}

func BenchmarkNEDJoint(b *testing.B) {
	res, err := pipeline.Run(context.Background(), pipeline.Options{
		World: synth.Config{
			People: 100, Companies: 25, Cities: 12, Countries: 4,
			Universities: 8, Products: 20, Prizes: 6,
		},
		Seed: 303, Workers: 2, Reason: false, Infoboxes: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	linker := res.Linker()
	a := res.Corpus.Articles[0]
	var mentions []ned.Mention
	for _, m := range a.Mentions {
		mentions = append(mentions, ned.Mention{Surface: m.Surface, Context: a.Text})
	}
	if len(mentions) == 0 {
		b.Skip("no mentions in first article")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		linker.Disambiguate(mentions, ned.Joint)
	}
}

func BenchmarkLinkageBlocking(b *testing.B) {
	w := synth.Generate(synth.DefaultConfig().Scaled(0.5), 304)
	var a, bb []linkage.Record
	for _, p := range w.People {
		a = append(a, linkage.Record{ID: "a:" + p.ID, Name: p.Name, Aliases: p.Aliases})
		bb = append(bb, linkage.Record{ID: "b:" + p.ID, Name: p.Name, Aliases: p.Aliases})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		linkage.Blocking(a, bb)
	}
}

func BenchmarkJaroWinkler(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		linkage.JaroWinkler("Kraurneathon Virnnaim", "Kraurneathan Virnaim")
	}
}

func BenchmarkPipelineSmall(b *testing.B) {
	opt := pipeline.Options{
		World: synth.Config{
			People: 50, Companies: 12, Cities: 8, Countries: 3,
			Universities: 5, Products: 10, Prizes: 4,
		},
		Seed: 305, Workers: 4, Reason: true, Infoboxes: true, Temporal: true,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.Run(context.Background(), opt); err != nil {
			b.Fatal(err)
		}
	}
}
