// Package pipeline assembles the full knowledge-base construction system
// of the tutorial (§2 + §3) as a streaming, cancellable data flow:
// synthetic world and corpus in, curated KB out. Stages — generate,
// taxonomy harvesting from categories, fact extraction (infoboxes +
// surface patterns over the map-reduce engine), logical consistency
// reasoning, temporal scoping, and multilingual labels — run under one
// context.Context and are timed and counted uniformly (see StageTiming).
// The NED models for downstream analytics (§4) are not a stage: a
// Result builds them from its world and corpus when Linker is called.
//
// The write path is one batch per writing stage, in a fixed order: the
// taxonomy and assert stages each write their facts and metadata with one
// core.Store.AddBatchMeta, and the labels stage with one AddBatch. FactIDs
// therefore follow the stages' output order, so a seed builds the same
// store — and Save writes the same snapshot, byte for byte — at any worker
// count or GOMAXPROCS. A write is visible to the next stage when its call
// returns; the reasoner reads the harvested taxonomy. Extraction streams:
// documents are fed to the map-reduce job through a channel as they are
// rendered, never materialized as one boxed input slice, and the
// sentence-level temporal scope candidates are carried out of the extract
// stage so temporal scoping does not re-run extraction.
//
// Cancelling the context makes Run return promptly with a context error:
// the map-reduce workers and the stage loop both check it.
package pipeline

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"kbharvest/internal/core"
	"kbharvest/internal/extract"
	"kbharvest/internal/extract/patterns"
	"kbharvest/internal/mapreduce"
	"kbharvest/internal/ned"
	"kbharvest/internal/rdf"
	"kbharvest/internal/reason"
	"kbharvest/internal/synth"
	"kbharvest/internal/taxonomy"
	"kbharvest/internal/temporal"
)

// Options configure a pipeline run.
type Options struct {
	// World sizes the synthetic world; zero value means DefaultConfig.
	World synth.Config
	// Seed drives world, corpus, and every randomized stage.
	Seed int64
	// Corpus tunes the article renderer; zero value means defaults.
	Corpus synth.CorpusOptions
	// Workers is the extraction parallelism (map-reduce). Values <= 0
	// default to runtime.GOMAXPROCS(0), matching mapreduce.Config.
	Workers int
	// Reason toggles the consistency-reasoning stage.
	Reason bool
	// Infoboxes toggles infobox harvesting.
	Infoboxes bool
	// Temporal toggles fact time-scoping.
	Temporal bool
}

// DefaultOptions enables every stage at default scale. Workers defaults to
// runtime.GOMAXPROCS(0) — the full machine — like the map-reduce engine;
// set it explicitly to throttle extraction parallelism.
func DefaultOptions() Options {
	return Options{
		World:     synth.DefaultConfig(),
		Seed:      42,
		Corpus:    synth.DefaultCorpusOptions(),
		Workers:   runtime.GOMAXPROCS(0),
		Reason:    true,
		Infoboxes: true,
		Temporal:  true,
	}
}

// StageTiming records one stage's wall-clock cost and output size.
type StageTiming struct {
	Stage    string
	Duration time.Duration
	// Items counts the stage's output units: articles generated, taxonomy
	// facts harvested, candidates extracted, candidates accepted, facts
	// asserted, label triples.
	Items int
}

// Result is the pipeline output.
type Result struct {
	KB     *core.Store
	World  *synth.World
	Corpus *synth.Corpus

	// Candidates counts raw extractions before reasoning; Accepted after.
	Candidates int
	Accepted   int
	Timings    []StageTiming
}

// runState carries the intermediate products between stages.
type runState struct {
	res *Result
	opt Options

	cands    []extract.Candidate
	scopes   map[string][]core.Interval
	accepted []extract.Candidate
	reasoned bool
}

// stage is one named, timed, cancellable unit of the pipeline. run returns
// the number of items the stage produced.
type stage struct {
	name    string
	enabled bool
	run     func(ctx context.Context) (int, error)
}

// Run executes the pipeline under ctx. Cancelling ctx aborts the run
// promptly — between stages and between map-reduce records — returning
// the context error.
func Run(ctx context.Context, opt Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	if opt.World.People == 0 {
		opt.World = synth.DefaultConfig()
	}
	if opt.Workers < 1 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	res := &Result{KB: core.NewStore()}
	st := &runState{res: res, opt: opt}

	stages := []stage{
		{"generate", true, st.generate},
		{"taxonomy", true, st.taxonomy},
		{"extract", true, st.extract},
		{"reason", opt.Reason, st.reason},
		{"assert", true, st.assert},
		{"labels", true, st.labels},
	}
	for _, s := range stages {
		if !s.enabled {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("pipeline: %s: %w", s.name, err)
		}
		t0 := time.Now()
		n, err := s.run(ctx)
		if err != nil {
			return nil, fmt.Errorf("pipeline: %s: %w", s.name, err)
		}
		res.Timings = append(res.Timings, StageTiming{Stage: s.name, Duration: time.Since(t0), Items: n})
	}
	return res, nil
}

// generate builds the synthetic world and renders its corpus.
func (st *runState) generate(context.Context) (int, error) {
	st.res.World = synth.Generate(st.opt.World, st.opt.Seed)
	st.res.Corpus = synth.BuildCorpus(st.res.World, st.opt.Corpus)
	return len(st.res.Corpus.Articles), nil
}

// taxonomy runs category analysis over the corpus and writes types, then
// subclass edges, into the KB: the reasoner's type checks read them.
func (st *runState) taxonomy(context.Context) (int, error) {
	res := st.res
	pages := make([]taxonomy.Page, 0, len(res.Corpus.Articles))
	for _, a := range res.Corpus.Articles {
		pages = append(pages, taxonomy.Page{Subject: a.Subject, Categories: a.Categories})
	}
	typeFacts := taxonomy.HarvestTypes(pages)
	// The same (entity, class) pair can arrive from several categories;
	// AddBatchMeta keeps the last one's metadata.
	ts := make([]rdf.Triple, len(typeFacts))
	infos := make([]core.FactInfo, len(typeFacts))
	for i, tf := range typeFacts {
		ts[i] = rdf.T(tf.Entity, rdf.RDFType, classIRI(tf.ClassNoun))
		infos[i] = core.FactInfo{Confidence: 0.95, Source: "category:" + tf.Category, Time: core.Always}
	}
	res.KB.AddBatchMeta(ts, infos)
	edges := taxonomy.InduceSubclasses(res.Corpus.CategoryParents)
	ts = ts[:0]
	for _, e := range edges {
		ts = append(ts, rdf.T(classIRI(e.Sub), rdf.RDFSSubClassOf, classIRI(e.Super)))
	}
	res.KB.AddBatch(ts)
	return len(typeFacts) + len(edges), nil
}

// extract applies infobox and pattern extraction. Documents stream into
// the map-reduce job through a channel as they are adapted from corpus
// articles, and — when temporal scoping is on — each sentence's time
// scope is carried along with the candidates it yields, so the assert
// stage never re-extracts.
func (st *runState) extract(ctx context.Context) (int, error) {
	res := st.res
	var cands []extract.Candidate
	if st.opt.Infoboxes {
		var boxes []patterns.Infobox
		for _, a := range res.Corpus.Articles {
			if len(a.Infobox) > 0 {
				boxes = append(boxes, patterns.Infobox{Subject: a.Subject, Fields: a.Infobox})
			}
		}
		resolve := func(name string) (string, bool) {
			if e := res.World.EntityByName(name); e != nil {
				return e.ID, true
			}
			return "", false
		}
		cands = append(cands, patterns.HarvestInfoboxes(boxes, synth.InfoboxRelation, resolve)...)
	}
	records := make(chan interface{}, st.opt.Workers)
	go func() {
		defer close(records)
		for _, a := range res.Corpus.Articles {
			select {
			case records <- docOfArticle(a):
			case <-ctx.Done():
				return
			}
		}
	}()
	textCands, scopes, err := extractStream(ctx, records, patterns.DefaultPatterns(), st.opt.Workers, st.opt.Temporal)
	if err != nil {
		return 0, err
	}
	st.cands = append(cands, textCands...)
	st.scopes = scopes
	res.Candidates = len(st.cands)
	return len(st.cands), nil
}

// reason builds the consistency problem from the schema rules and the
// harvested taxonomy, then solves it.
func (st *runState) reason(context.Context) (int, error) {
	st.accepted = runReasoning(st.res, st.cands)
	st.reasoned = true
	return len(st.accepted), nil
}

// assert writes the accepted candidates into the KB with provenance and
// (optionally) the temporal scope aggregated from the sentence-level
// scopes collected during extraction.
func (st *runState) assert(context.Context) (int, error) {
	if !st.reasoned {
		st.accepted = st.cands // reasoning disabled: accept everything
	}
	st.res.Accepted = len(st.accepted)
	// The same fact key can be accepted twice (infobox + pattern);
	// AddBatchMeta keeps the last occurrence's metadata.
	ts := make([]rdf.Triple, len(st.accepted))
	infos := make([]core.FactInfo, len(st.accepted))
	for i, c := range st.accepted {
		ts[i] = c.Triple()
		infos[i] = core.FactInfo{Confidence: c.Confidence, Source: c.Source, Time: core.Always}
		if ivs := st.scopes[c.Key()]; len(ivs) > 0 {
			if iv, ok := temporal.AggregateScopes(ivs); ok {
				infos[i].Time = iv
			}
		}
	}
	st.res.KB.AddBatchMeta(ts, infos)
	return len(st.accepted), nil
}

// labels copies the multilingual labels and aliases from the world
// metadata (standing in for interwiki harvesting).
func (st *runState) labels(context.Context) (int, error) {
	res := st.res
	n := 0
	for _, e := range res.World.Entities {
		n += len(e.Labels) + len(e.Aliases)
	}
	ts := make([]rdf.Triple, 0, n)
	var langs []string
	for _, e := range res.World.Entities {
		// Labels is a map: sorted languages keep FactID order, and so
		// which label a limited query answers, fixed for a seed.
		langs = langs[:0]
		for lang := range e.Labels {
			langs = append(langs, lang)
		}
		sort.Strings(langs)
		for _, lang := range langs {
			ts = append(ts, rdf.Triple{
				S: rdf.NewIRI(e.ID), P: rdf.NewIRI(rdf.RDFSLabel),
				O: rdf.NewLangLiteral(e.Labels[lang], lang),
			})
		}
		for _, a := range e.Aliases {
			ts = append(ts, rdf.Triple{
				S: rdf.NewIRI(e.ID), P: rdf.NewIRI(rdf.SKOSAltLabel),
				O: rdf.NewLangLiteral(a, "en"),
			})
		}
	}
	res.KB.AddBatch(ts)
	return len(ts), nil
}

func classIRI(noun string) string { return "kb:" + noun }

// docOfArticle adapts one corpus article to an extraction document with
// gold mention annotations.
func docOfArticle(a *synth.Article) extract.Doc {
	d := extract.Doc{Text: a.Text, Source: a.ID}
	for _, m := range a.Mentions {
		d.Mentions = append(d.Mentions, extract.Span{Start: m.Start, End: m.End, Entity: m.Entity})
	}
	return d
}

// Docs converts corpus articles into extraction documents with gold
// mention annotations.
func Docs(corpus *synth.Corpus) []extract.Doc {
	docs := make([]extract.Doc, 0, len(corpus.Articles))
	for _, a := range corpus.Articles {
		docs = append(docs, docOfArticle(a))
	}
	return docs
}

// scopedCandidate is the map-side extraction record: one candidate plus
// the temporal scope of the sentence it came from, if any.
type scopedCandidate struct {
	cand   extract.Candidate
	iv     core.Interval
	scoped bool
}

// extractOut is the reduce-side output: the best candidate per fact key
// and every sentence-level scope observed for it.
type extractOut struct {
	cand extract.Candidate
	ivs  []core.Interval
}

// extractMapReduce runs pattern extraction as a map-reduce job: map =
// per-sentence extraction, reduce = dedup by fact key keeping max
// confidence. This is the §3 "map-reduce computation" path over a fixed
// slice of documents — the seam the worker-count determinism test drives;
// Run feeds extractStream itself, with scope collection on.
func extractMapReduce(ctx context.Context, docs []extract.Doc, pats []patterns.SurfacePattern, workers int) ([]extract.Candidate, error) {
	records := make(chan interface{}, 1)
	go func() {
		defer close(records)
		for _, d := range docs {
			select {
			case records <- d:
			case <-ctx.Done():
				return
			}
		}
	}()
	cands, _, err := extractStream(ctx, records, pats, workers, false)
	return cands, err
}

// extractStream is the streaming extraction core: it consumes extract.Doc
// records from a channel, fans them over map-reduce workers, and returns
// the deduped candidates (sorted by fact key) plus, when collectScopes is
// set, the sentence-level temporal scopes per fact key.
func extractStream(ctx context.Context, records <-chan interface{}, pats []patterns.SurfacePattern, workers int, collectScopes bool) ([]extract.Candidate, map[string][]core.Interval, error) {
	mapper := func(record interface{}, emit func(string, interface{})) error {
		doc, ok := record.(extract.Doc)
		if !ok {
			return fmt.Errorf("bad record type %T", record)
		}
		for _, sent := range extract.SplitDoc(doc) {
			var iv core.Interval
			scoped := false
			if collectScopes {
				iv, scoped = temporal.ScopeSentence(sent.Text)
			}
			for _, c := range patterns.Apply([]extract.Sentence{sent}, pats) {
				emit(c.Key(), scopedCandidate{cand: c, iv: iv, scoped: scoped})
			}
		}
		return nil
	}
	reducer := func(key string, values []interface{}, emit func(interface{})) error {
		out := extractOut{cand: values[0].(scopedCandidate).cand}
		for _, v := range values {
			sc := v.(scopedCandidate)
			if better(sc.cand, out.cand) {
				out.cand = sc.cand
			}
			if sc.scoped {
				out.ivs = append(out.ivs, sc.iv)
			}
		}
		emit(out)
		return nil
	}
	kvs, err := mapreduce.RunStream(ctx, records, mapper, reducer, mapreduce.Config{Workers: workers})
	if err != nil {
		return nil, nil, err
	}
	cands := make([]extract.Candidate, 0, len(kvs))
	var scopes map[string][]core.Interval
	if collectScopes {
		scopes = make(map[string][]core.Interval, len(kvs))
	}
	for _, kv := range kvs {
		out := kv.Value.(extractOut)
		cands = append(cands, out.cand)
		if collectScopes && len(out.ivs) > 0 {
			scopes[kv.Key] = out.ivs
		}
	}
	return cands, scopes, nil
}

// better orders candidates of one fact key: higher confidence wins, ties
// break on (Source, Middle) so the winner is deterministic no matter how
// records were scheduled over workers.
func better(a, b extract.Candidate) bool {
	if a.Confidence != b.Confidence {
		return a.Confidence > b.Confidence
	}
	if a.Source != b.Source {
		return a.Source < b.Source
	}
	return a.Middle < b.Middle
}

// consistencyRules are the schema rules the reasoner enforces: functional
// relations, and type signatures checked against the *harvested* taxonomy
// (not gold), where an entity without types passes (open-world). Each
// entity's inherited types are looked up in the KB once and kept for the
// life of the rules: candidates mention the same entities over and over,
// and every lookup is a walk up the subclass hierarchy.
func consistencyRules(kb *core.Store) reason.ConsistencyRules {
	types := map[string][]string{}
	conforms := func(entity, class string) bool {
		ts, ok := types[entity]
		if !ok {
			ts = kb.Types(entity)
			types[entity] = ts
		}
		if len(ts) == 0 {
			return true
		}
		for _, t := range ts {
			if t == class {
				return true
			}
		}
		return false
	}
	rules := reason.ConsistencyRules{
		Functional: map[string]bool{},
		TypeCheck: func(c extract.Candidate) bool {
			schema, ok := synth.SchemaOf(c.P)
			return !ok || conforms(c.S, schema.Domain) && conforms(c.O, schema.Range)
		},
	}
	for _, s := range synth.Schema {
		if s.Functional {
			rules.Functional[s.ID] = true
		}
	}
	return rules
}

// runReasoning builds the consistency problem from the schema rules and
// the harvested taxonomy, then solves it.
func runReasoning(res *Result, cands []extract.Candidate) []extract.Candidate {
	cp := reason.BuildConsistency(cands, consistencyRules(res.KB))
	sol := cp.SolveWalkSAT(4*len(cands)+1000, 0.2, 7)
	return cp.Accepted(sol)
}

// Linker builds an AIDA-style linker from the run's world and corpus
// (ned.FromCorpus). Each call builds the dictionary, context model and
// relatedness graph anew, a pass over every entity and article that costs
// as much as the extract stage or more (≈ 0.4 s at kbbuild -scale 16 on
// a 2-core VM): call it once and keep the linker.
func (r *Result) Linker() *ned.Linker {
	return ned.FromCorpus(r.World, r.Corpus)
}

// EvaluateFacts scores the KB's relational facts against the generating
// world's ground truth (relation facts only; types and labels excluded).
func EvaluateFacts(res *Result) (tp, fp, fn int) {
	goldKeys := map[string]bool{}
	for _, f := range res.World.Facts {
		goldKeys[f.S+"\x00"+f.P+"\x00"+f.O] = true
	}
	predKeys := map[string]bool{}
	for _, rel := range relationIRIs() {
		res.KB.MatchFunc(rdf.Triple{P: rdf.NewIRI(rel)}, func(_ core.FactID, t rdf.Triple) bool {
			predKeys[t.S.Value+"\x00"+rel+"\x00"+t.O.Value] = true
			return true
		})
	}
	for k := range predKeys {
		if goldKeys[k] {
			tp++
		} else {
			fp++
		}
	}
	for k := range goldKeys {
		if !predKeys[k] {
			fn++
		}
	}
	return tp, fp, fn
}

func relationIRIs() []string {
	out := make([]string, 0, len(synth.Schema))
	for _, s := range synth.Schema {
		out = append(out, s.ID)
	}
	return out
}
