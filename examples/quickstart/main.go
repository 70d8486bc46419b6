// Quickstart: build a knowledge base end to end, query it, and save a
// snapshot — the 60-second tour of the public API.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"kbharvest"
)

func main() {
	log.SetFlags(0)
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the tour; it takes no arguments and reads no input.
func run(_ []string, _ io.Reader, stdout io.Writer) error {
	// 1. Build a KB at small scale: synthetic world + corpus, taxonomy
	//    harvesting, pattern extraction, consistency reasoning, temporal
	//    scoping — the full §2/§3 pipeline.
	opt := kbharvest.DefaultBuildOptions()
	opt.World = kbharvest.WorldConfig{
		People: 60, Companies: 15, Cities: 10, Countries: 3,
		Universities: 6, Products: 12, Prizes: 4,
	}
	result, err := kbharvest.Build(opt)
	if err != nil {
		return err
	}
	stats := result.KB.Stats()
	fmt.Fprintf(stdout, "built KB: %d facts about %d entities\n", stats.Facts, stats.Entities)

	// 2. Query with conjunctive triple patterns: founders and the city of
	//    the company they founded.
	rows, err := result.KB.QueryStrings([]string{
		"?person kb:founded ?company",
		"?company kb:locatedIn ?city",
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "founders with company cities: %d rows; first 3:\n", len(rows))
	for i, b := range rows {
		if i == 3 {
			break
		}
		fmt.Fprintf(stdout, "  %s founded %s in %s\n", b["person"].Value, b["company"].Value, b["city"].Value)
	}

	// 3. Ask the taxonomy: every physicist the KB knows.
	physicists := result.KB.Instances("kb:physicist")
	fmt.Fprintf(stdout, "physicists known to the KB: %d\n", len(physicists))

	// 4. Disambiguate an ambiguous mention with NED models built from the
	//    run's world and corpus.
	person := result.World.People[0]
	linker := result.Linker()
	res := linker.Disambiguate([]kbharvest.Mention{{
		Surface: person.Aliases[0], // ambiguous family name
		Context: result.Corpus.BySubject[person.ID].Text,
	}}, 2 /* joint mode */)
	fmt.Fprintf(stdout, "mention %q resolved to %s (gold %s)\n", person.Aliases[0], res[0].Entity, person.ID)

	// 5. Save the KB as N-Triples-with-metadata.
	f, err := os.CreateTemp("", "kbharvest-quickstart-*.nt")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name())
	defer f.Close() // for the error paths; the success path checks Close below
	if err := kbharvest.SaveKB(result.KB, f); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "snapshot saved to %s\n", f.Name())
	return nil
}
