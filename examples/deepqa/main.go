// Deepqa answers natural-language questions over the knowledge base —
// the "deep question answering" application the tutorial's introduction
// names among the knowledge-centric services a KB enables (§1).
//
// Question templates are parsed into conjunctive triple-pattern queries
// and evaluated by the KB's query engine; entity names in questions are
// resolved through the NED dictionary.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"kbharvest"
	"kbharvest/internal/core"
)

// question pairs a recognizer with a query builder.
type question struct {
	prefix string // lowercase question prefix
	suffix string
	build  func(entity string) []core.Pattern
	render func(b core.Binding) string
}

var questions = []question{
	{
		prefix: "who founded ",
		build: func(e string) []core.Pattern {
			return []core.Pattern{{S: core.PVar("x"), P: core.PIRI("kb:founded"), O: core.PIRI(e)}}
		},
		render: func(b core.Binding) string { return clean(b["x"].Value) },
	},
	{
		prefix: "where was ", suffix: " born",
		build: func(e string) []core.Pattern {
			return []core.Pattern{{S: core.PIRI(e), P: core.PIRI("kb:bornIn"), O: core.PVar("x")}}
		},
		render: func(b core.Binding) string { return clean(b["x"].Value) },
	},
	{
		prefix: "who is married to ",
		build: func(e string) []core.Pattern {
			return []core.Pattern{{S: core.PIRI(e), P: core.PIRI("kb:marriedTo"), O: core.PVar("x")}}
		},
		render: func(b core.Binding) string { return clean(b["x"].Value) },
	},
	{
		prefix: "which companies are located in ",
		build: func(e string) []core.Pattern {
			return []core.Pattern{
				{S: core.PVar("x"), P: core.PIRI("kb:locatedIn"), O: core.PIRI(e)},
				{S: core.PVar("x"), P: core.PIRI("rdf:type"), O: core.PIRI("kb:company")},
			}
		},
		render: func(b core.Binding) string { return clean(b["x"].Value) },
	},
	{
		prefix: "who works at ",
		build: func(e string) []core.Pattern {
			return []core.Pattern{{S: core.PVar("x"), P: core.PIRI("kb:worksAt"), O: core.PIRI(e)}}
		},
		render: func(b core.Binding) string { return clean(b["x"].Value) },
	},
	{
		prefix: "what did ", suffix: " win",
		build: func(e string) []core.Pattern {
			return []core.Pattern{{S: core.PIRI(e), P: core.PIRI("kb:wonPrize"), O: core.PVar("x")}}
		},
		render: func(b core.Binding) string { return clean(b["x"].Value) },
	},
}

func main() {
	log.SetFlags(0)
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run asks the questions; it takes no arguments and reads no input.
func run(_ []string, _ io.Reader, stdout io.Writer) error {
	opt := kbharvest.DefaultBuildOptions()
	opt.World = kbharvest.WorldConfig{
		People: 80, Companies: 20, Cities: 10, Countries: 3,
		Universities: 8, Products: 15, Prizes: 5,
	}
	result, err := kbharvest.Build(opt)
	if err != nil {
		return err
	}
	linker := result.Linker()

	// Pose one question of each kind about real entities of the world.
	w := result.World
	asks := []string{
		"Who founded " + w.Companies[0].Name + "?",
		"Where was " + w.People[0].Name + " born?",
		"Who is married to " + firstMarried(result) + "?",
		"Which companies are located in " + w.Cities[0].Name + "?",
		"Who works at " + w.Companies[1].Name + "?",
		"What did " + firstWinner(result) + " win?",
	}
	for _, q := range asks {
		fmt.Fprintf(stdout, "Q: %s\n", q)
		answers, err := answer(result.KB, linker, q)
		if err != nil {
			return err
		}
		if len(answers) == 0 {
			fmt.Fprintln(stdout, "A: (no answer found)")
		} else {
			fmt.Fprintf(stdout, "A: %s\n", strings.Join(answers, "; "))
		}
		fmt.Fprintln(stdout)
	}
	return nil
}

// answer parses the question, resolves the entity name via the linker's
// NED dictionary, runs the query, and renders answers.
func answer(kb *kbharvest.KB, linker *kbharvest.Linker, q string) ([]string, error) {
	lq := strings.ToLower(strings.TrimSuffix(strings.TrimSpace(q), "?"))
	for _, tmpl := range questions {
		if !strings.HasPrefix(lq, tmpl.prefix) || !strings.HasSuffix(lq, tmpl.suffix) {
			continue
		}
		name := strings.TrimSpace(q[len(tmpl.prefix) : len(lq)-len(tmpl.suffix)])
		cands := linker.Dict.Candidates(name)
		if len(cands) == 0 {
			return nil, nil
		}
		entity := cands[0].Entity
		// Stream bindings instead of materializing the full result set;
		// a QA surface only ever renders a handful of answers.
		var out []string
		seen := map[string]bool{}
		err := kb.QueryFunc(context.Background(), tmpl.build(entity), 0, func(b core.Binding) bool {
			a := tmpl.render(b)
			if !seen[a] {
				seen[a] = true
				out = append(out, a)
			}
			return len(out) < 10
		})
		return out, err
	}
	return nil, nil
}

func clean(iri string) string {
	return strings.ReplaceAll(strings.TrimPrefix(iri, "kb:"), "_", " ")
}

func firstMarried(result *kbharvest.BuildResult) string {
	for _, f := range result.World.FactsOf("kb:marriedTo") {
		return result.World.ByID[f.S].Name
	}
	return result.World.People[0].Name
}

func firstWinner(result *kbharvest.BuildResult) string {
	for _, f := range result.World.FactsOf("kb:wonPrize") {
		return result.World.ByID[f.S].Name
	}
	return result.World.People[0].Name
}
