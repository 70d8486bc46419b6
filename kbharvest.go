// Package kbharvest is a knowledge-base construction and knowledge-centric
// analytics toolkit — a from-scratch Go reproduction of the system stack
// surveyed in "Knowledge Bases in the Age of Big Data Analytics" (Suchanek
// & Weikum, PVLDB 7(13), 2014).
//
// The library covers both directions of the tutorial's theme:
//
//   - big data FOR knowledge: building a KB from a (synthetic) Web corpus —
//     taxonomy induction from category systems, relational fact harvesting
//     with patterns / distant supervision / open IE, consistency reasoning
//     via weighted MaxSat, factor-graph inference, temporal scoping,
//     multilingual labels, commonsense rule mining;
//   - knowledge FOR big data: named-entity disambiguation combining
//     priors, context, and coherence, and entity linkage emitting
//     owl:sameAs at scale.
//
// Quickstart:
//
//	result, err := kbharvest.Build(kbharvest.DefaultBuildOptions())
//	if err != nil { ... }
//	rows, _ := result.KB.QueryStrings([]string{"?p kb:founded ?c"})
//
// See examples/ for full programs, and ROADMAP.md and OPERATIONS.md for
// the inventory of what is built around this facade.
package kbharvest

import (
	"context"
	"io"

	"kbharvest/internal/core"
	"kbharvest/internal/ned"
	"kbharvest/internal/pipeline"
	"kbharvest/internal/rdf"
	"kbharvest/internal/synth"
)

// KB is the knowledge base: a dictionary-encoded triple store with
// SPO/POS/OSP indexes, per-fact confidence/provenance/temporal metadata,
// taxonomy operations, and a conjunctive query engine. It is append-only:
// facts are added, never removed.
type KB = core.Store

// Triple is one subject-predicate-object statement.
type Triple = rdf.Triple

// Term is one RDF term (IRI, literal, or blank node).
type Term = rdf.Term

// Interval is a fact's validity timespan in days since 1900-01-01.
type Interval = core.Interval

// FactInfo is per-fact metadata: confidence, provenance, temporal scope.
type FactInfo = core.FactInfo

// BuildOptions configure an end-to-end KB construction run.
type BuildOptions = pipeline.Options

// BuildResult is the output of Build: the KB and the generating world and
// corpus (for evaluation). Its Linker method builds NED models from the
// world and corpus on each call.
type BuildResult = pipeline.Result

// WorldConfig sizes the synthetic world standing in for Wikipedia/Web
// sources (internal/synth's package comment gives the rationale).
type WorldConfig = synth.Config

// Linker is the AIDA-style named-entity disambiguator.
type Linker = ned.Linker

// Mention is one surface form plus its textual context, ready for
// disambiguation.
type Mention = ned.Mention

// NewKB returns an empty knowledge base.
func NewKB() *KB { return core.NewStore() }

// DefaultBuildOptions enables every pipeline stage at default scale.
func DefaultBuildOptions() BuildOptions { return pipeline.DefaultOptions() }

// Build runs the full construction pipeline: synthetic world and corpus,
// taxonomy harvesting, fact extraction, consistency reasoning, temporal
// scoping, and labels.
func Build(opt BuildOptions) (*BuildResult, error) {
	return pipeline.Run(context.Background(), opt)
}

// BuildContext is Build bounded by a context: cancelling ctx aborts the
// run promptly — the stage loop and the extraction workers are
// cancellation-aware — returning the context error.
func BuildContext(ctx context.Context, opt BuildOptions) (*BuildResult, error) {
	return pipeline.Run(ctx, opt)
}

// NewIRI builds an IRI term.
func NewIRI(iri string) Term { return rdf.NewIRI(iri) }

// T builds an IRI-only triple.
func T(s, p, o string) Triple { return rdf.T(s, p, o) }

// SaveKB writes a KB snapshot (N-Triples plus metadata comments) to w.
func SaveKB(kb *KB, w io.Writer) error { return kb.Save(w) }

// LoadKB reads a snapshot into a fresh KB. The reader is read twice:
// once to verify the snapshot's integrity trailer, once to load it.
func LoadKB(r io.ReadSeeker) (*KB, error) {
	kb := core.NewStore()
	if _, err := kb.Load(r); err != nil {
		return nil, err
	}
	return kb, nil
}
