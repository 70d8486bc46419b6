// Kblink aligns two KB editions and emits owl:sameAs links (§4's entity
// linkage). For the demo it derives two noisy editions of the same
// synthetic world; -seed2 controls the perturbation.
//
// Usage:
//
//	kblink                  # link two editions, print sameAs triples
//	kblink -matcher rule    # threshold matcher instead of learned
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"

	"kbharvest/internal/linkage"
	"kbharvest/internal/rdf"
	"kbharvest/internal/synth"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("kblink: ")
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run links the two editions, writing the sameAs triples to stdout and a
// summary to the log; it reads no input.
func run(args []string, _ io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("kblink", flag.ExitOnError)
	seed := fs.Int64("seed", 115, "world seed")
	matcherFlag := fs.String("matcher", "learned", "matcher: rule | learned")
	threshold := fs.Float64("threshold", 0.93, "rule matcher threshold")
	fs.Parse(args)

	a, b, gold := editions(*seed)
	var matcher linkage.Matcher = linkage.RuleMatcher{Threshold: *threshold}
	if *matcherFlag == "learned" {
		ta, tb, tgold := editions(*seed + 1000)
		matcher = trainOn(ta, tb, tgold)
	}
	pairs := linkage.Blocking(a, b)
	links := linkage.Link(a, b, pairs, matcher)

	w := bufio.NewWriter(stdout)
	correct := 0
	for _, l := range links {
		fmt.Fprintln(w, rdf.T(l.A, rdf.OWLSameAs, l.B).String())
		if gold[l.A] == l.B {
			correct++
		}
	}
	log.Printf("%d candidate pairs, %d links, %d correct (gold %d)",
		len(pairs), len(links), correct, len(gold))
	return w.Flush()
}

func editions(seed int64) (a, b []linkage.Record, gold map[string]string) {
	w := synth.Generate(synth.DefaultConfig().Scaled(0.5), seed)
	rng := rand.New(rand.NewSource(seed + 1))
	gold = map[string]string{}
	for i, p := range w.People {
		aID := "a:" + p.ID
		a = append(a, linkage.Record{ID: aID, Name: p.Name, Aliases: p.Aliases})
		if i%7 != 0 {
			bID := "b:" + p.ID
			b = append(b, linkage.Record{ID: bID, Name: perturb(p.Name, rng), Aliases: p.Aliases})
			gold[aID] = bID
		}
	}
	return a, b, gold
}

func trainOn(a, b []linkage.Record, gold map[string]string) linkage.Matcher {
	byID := map[string]linkage.Record{}
	for _, r := range b {
		byID[r.ID] = r
	}
	rng := rand.New(rand.NewSource(9))
	var examples []linkage.LabeledPair
	for _, r := range a {
		if bid, ok := gold[r.ID]; ok {
			examples = append(examples, linkage.LabeledPair{A: r, B: byID[bid], Match: true})
		}
		neg := b[rng.Intn(len(b))]
		if gold[r.ID] != neg.ID {
			examples = append(examples, linkage.LabeledPair{A: r, B: neg, Match: false})
		}
	}
	return linkage.TrainLogistic(examples, 20, 0.5, 7)
}

func perturb(name string, rng *rand.Rand) string {
	if len(name) < 4 {
		return name
	}
	i := 1 + rng.Intn(len(name)-2)
	switch rng.Intn(3) {
	case 0:
		return name[:i] + name[i+1:]
	case 1:
		bs := []byte(name)
		bs[i], bs[i+1] = bs[i+1], bs[i]
		return string(bs)
	default:
		return name[:i] + string(name[i]) + name[i:]
	}
}
