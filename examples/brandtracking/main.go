// Brandtracking is the tutorial's motivating analytics example (§4):
// "track and compare two entities in social media over an extended
// timespan (e.g., the Apple iPhone vs. Samsung Galaxy families)".
//
// A year of synthetic posts mentions two smartphone families, half the
// time by the ambiguous family word alone ("Nova" instead of "Nova 3").
// String matching cannot attribute those mentions to a concrete product;
// entity disambiguation against the KB can — that is the "knowledge for
// big data" direction of the tutorial.
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strings"

	"kbharvest"
	"kbharvest/internal/ned"
	"kbharvest/internal/synth"
	"kbharvest/internal/temporal"
)

func main() {
	log.SetFlags(0)
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run tracks the two families; it takes no arguments and reads no input.
func run(_ []string, _ io.Reader, stdout io.Writer) error {
	opt := kbharvest.DefaultBuildOptions()
	opt.World = kbharvest.WorldConfig{
		People: 80, Companies: 25, Cities: 12, Countries: 4,
		Universities: 8, Products: 40, Prizes: 5,
	}
	result, err := kbharvest.Build(opt)
	if err != nil {
		return err
	}
	linker := result.Linker()

	streamOpt := synth.DefaultStreamOptions(result.World)
	streamOpt.Posts = 4000
	posts := synth.GenerateStream(result.World, streamOpt)
	fmt.Fprintf(stdout, "tracking %q vs %q over %d posts, %d days\n\n",
		streamOpt.Lines[0], streamOpt.Lines[1], len(posts), streamOpt.Days)

	// Monthly mention series per family, with NED resolving each mention
	// to a concrete product entity.
	type key struct {
		line  string
		month int
	}
	series := map[key]int{}
	products := map[string]map[string]int{} // line -> product -> count
	attributed, correct := 0, 0
	for _, p := range posts {
		for _, m := range p.Mentions {
			res := linker.Disambiguate([]ned.Mention{{Surface: m.Surface, Context: p.Text}}, ned.PriorContext)
			if len(res) != 1 || res[0].NoCandidate {
				continue
			}
			entity := res[0].Entity
			line := result.World.ProductLine[entity]
			if line == "" {
				continue
			}
			attributed++
			if entity == m.Entity {
				correct++
			}
			month := temporal.FromDay(p.Day).Month
			series[key{line, month}]++
			if products[line] == nil {
				products[line] = map[string]int{}
			}
			products[line][entity]++
		}
	}
	fmt.Fprintf(stdout, "NED attribution accuracy: %.3f (%d/%d mentions)\n\n",
		float64(correct)/float64(attributed), correct, attributed)

	fmt.Fprintln(stdout, "monthly mention volume (NED-attributed):")
	fmt.Fprintf(stdout, "%-10s", "month")
	for _, line := range streamOpt.Lines {
		fmt.Fprintf(stdout, "%10s", line)
	}
	fmt.Fprintln(stdout)
	for month := 1; month <= 12; month++ {
		fmt.Fprintf(stdout, "%-10d", month)
		for _, line := range streamOpt.Lines {
			fmt.Fprintf(stdout, "%10d", series[key{line, month}])
		}
		fmt.Fprintln(stdout)
	}

	fmt.Fprintln(stdout, "\nper-product breakdown (top products per family):")
	for _, line := range streamOpt.Lines {
		fmt.Fprintf(stdout, "  %s:\n", line)
		counts := products[line]
		names := make([]string, 0, len(counts))
		for product := range counts {
			names = append(names, product)
		}
		sort.Slice(names, func(i, j int) bool {
			if counts[names[i]] != counts[names[j]] {
				return counts[names[i]] > counts[names[j]]
			}
			return names[i] < names[j]
		})
		for _, product := range names {
			fmt.Fprintf(stdout, "    %-30s %5d mentions\n", strings.TrimPrefix(product, "kb:"), counts[product])
		}
	}
	return nil
}
