// Kbconstruction walks through every stage of the knowledge-base
// construction pipeline with per-stage reporting — the narrative of §2
// and §3 of the tutorial in one runnable program: corpus, taxonomy, fact
// extraction, consistency reasoning, temporal scoping, evaluation.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"kbharvest"
	"kbharvest/internal/core"
	"kbharvest/internal/eval"
	"kbharvest/internal/pipeline"
	"kbharvest/internal/rdf"
)

func main() {
	log.SetFlags(0)
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run builds the KB and reports on every stage; it takes no arguments
// and reads no input.
func run(_ []string, _ io.Reader, stdout io.Writer) error {
	opt := kbharvest.DefaultBuildOptions()
	opt.World = kbharvest.WorldConfig{
		People: 100, Companies: 25, Cities: 12, Countries: 4,
		Universities: 8, Products: 20, Prizes: 6,
	}
	opt.Workers = 4
	result, err := kbharvest.Build(opt)
	if err != nil {
		return err
	}

	fmt.Fprintln(stdout, "=== stage timings")
	for _, st := range result.Timings {
		fmt.Fprintf(stdout, "  %-10s %8v  %6d items\n", st.Stage, st.Duration.Round(1e6), st.Items)
	}

	fmt.Fprintln(stdout, "\n=== corpus (the raw material)")
	fmt.Fprintf(stdout, "  articles: %d\n", len(result.Corpus.Articles))
	a := result.Corpus.Articles[0]
	fmt.Fprintf(stdout, "  sample article %q:\n    categories: %v\n    infobox: %v\n",
		a.Title, a.Categories, a.Infobox)

	fmt.Fprintln(stdout, "\n=== taxonomy (harvested from categories)")
	for _, class := range []string{"kb:person", "kb:scientist", "kb:company"} {
		fmt.Fprintf(stdout, "  %-14s %4d instances, subclasses: %v\n",
			class, len(result.KB.Instances(class)), result.KB.Subclasses(class))
	}

	fmt.Fprintln(stdout, "\n=== fact harvesting + reasoning")
	fmt.Fprintf(stdout, "  candidates extracted: %d\n", result.Candidates)
	fmt.Fprintf(stdout, "  accepted after consistency reasoning: %d\n", result.Accepted)
	tp, fp, fn := pipeline.EvaluateFacts(result)
	fmt.Fprintf(stdout, "  quality vs ground truth: %v\n", eval.Score(tp, fp, fn))

	fmt.Fprintln(stdout, "\n=== temporal scopes (sample)")
	shown := 0
	result.KB.MatchFunc(rdf.Triple{P: rdf.NewIRI("kb:worksAt")}, func(id core.FactID, t rdf.Triple) bool {
		info, _ := result.KB.Info(id)
		if info.Time != core.Always {
			fmt.Fprintf(stdout, "  %s worksAt %s during %v\n", t.S.Value, t.O.Value, info.Time)
			shown++
		}
		return shown < 3
	})

	fmt.Fprintln(stdout, "\n=== provenance (every fact knows where it came from)")
	shown = 0
	result.KB.MatchFunc(rdf.Triple{P: rdf.NewIRI("kb:founded")}, func(id core.FactID, t rdf.Triple) bool {
		info, _ := result.KB.Info(id)
		fmt.Fprintf(stdout, "  %s  conf=%.2f  source=%s\n", t.String(), info.Confidence, info.Source)
		shown++
		return shown < 3
	})
	return nil
}
