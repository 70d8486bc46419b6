// Nedtool disambiguates entity mentions in free text against NED models
// built from the construction pipeline's world and corpus (§4 of the
// tutorial).
//
// Usage:
//
//	nedtool "Griortrais joined Duduno Dynamics after leaving Slimgiondo."
//	nedtool -mode joint -scale 0.5 "text with mentions ..."
//
// With no arguments it reads text from stdin.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"kbharvest/internal/ned"
	"kbharvest/internal/pipeline"
	"kbharvest/internal/synth"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("nedtool: ")
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run parses args, builds the models, and disambiguates the mentions in
// the text of args, or of stdin when args hold none.
func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("nedtool", flag.ExitOnError)
	scale := fs.Float64("scale", 0.5, "world scale for model building")
	seed := fs.Int64("seed", 42, "world seed")
	modeFlag := fs.String("mode", "joint", "disambiguation mode: prior | context | joint")
	topK := fs.Int("top", 3, "candidates to show per mention")
	fs.Parse(args)

	var mode ned.Mode
	switch *modeFlag {
	case "prior":
		mode = ned.PriorOnly
	case "context":
		mode = ned.PriorContext
	case "joint":
		mode = ned.Joint
	default:
		return fmt.Errorf("unknown mode %q", *modeFlag)
	}

	text := strings.Join(fs.Args(), " ")
	if text == "" {
		data, err := io.ReadAll(stdin)
		if err != nil {
			return err
		}
		text = string(data)
	}
	if strings.TrimSpace(text) == "" {
		return errors.New("no input text")
	}

	opt := pipeline.DefaultOptions()
	opt.World = synth.DefaultConfig().Scaled(*scale)
	opt.Seed = *seed
	res, err := pipeline.Run(context.Background(), opt)
	if err != nil {
		return err
	}
	linker := res.Linker()

	detected := linker.Dict.DetectMentions(text, 3)
	if len(detected) == 0 {
		fmt.Fprintln(stdout, "no known mentions found")
		return nil
	}
	mentions := make([]ned.Mention, len(detected))
	for i, d := range detected {
		mentions[i] = ned.Mention{Surface: d.Surface, Context: window(text, d.Start, d.End, 150)}
	}
	results := linker.Disambiguate(mentions, mode)
	fmt.Fprintf(stdout, "mode: %s\n", mode)
	for i, r := range results {
		fmt.Fprintf(stdout, "%-24q -> ", detected[i].Surface)
		if r.NoCandidate {
			fmt.Fprintln(stdout, "(no candidate)")
			continue
		}
		fmt.Fprintf(stdout, "%s (score %.3f)\n", r.Entity, r.Score)
		for _, c := range linker.TopCandidates(mentions[i], *topK) {
			fmt.Fprintf(stdout, "    candidate %-30s %.3f\n", c.Entity, c.Prior)
		}
	}
	return nil
}

func window(s string, start, end, radius int) string {
	lo := start - radius
	if lo < 0 {
		lo = 0
	}
	hi := end + radius
	if hi > len(s) {
		hi = len(s)
	}
	return s[lo:hi]
}
