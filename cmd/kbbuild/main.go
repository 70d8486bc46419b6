// Kbbuild runs the full knowledge-base construction pipeline over a
// synthetic corpus and writes the resulting KB snapshot.
//
// With -shards N the snapshot is hash-partitioned by subject into
// kb.0.nt … kb.N-1.nt (for -out kb.nt), one file per kbserve shard; the
// partition function lives in internal/shardkb so kbrouter routes
// queries to the same shard kbbuild wrote each subject to. The plain
// single-file snapshot is simply the N=1 case.
//
// Usage:
//
//	kbbuild -out kb.nt              # default-scale world
//	kbbuild -scale 2 -seed 7 -out kb.nt -workers 8
//	kbbuild -out kb.nt -shards 4    # kb.0.nt … kb.3.nt
//	kbbuild -no-reason              # accept every extraction unvetted
//
// Consistency reasoning is part of every build and a small share of one
// at any scale (the solver's work is linear in the candidates);
// -no-reason exists to show what the KB looks like without it, not to
// make large worlds affordable.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strings"

	"kbharvest/internal/core"
	"kbharvest/internal/eval"
	"kbharvest/internal/pipeline"
	"kbharvest/internal/rdf"
	"kbharvest/internal/shardkb"
	"kbharvest/internal/synth"
)

// shardPaths derives the per-partition snapshot names from -out:
// kb.nt with 4 shards becomes kb.0.nt … kb.3.nt. With n <= 1 the
// single-file name is used as-is.
func shardPaths(out string, n int) []string {
	if n <= 1 {
		return []string{out}
	}
	ext := filepath.Ext(out)
	base := strings.TrimSuffix(out, ext)
	paths := make([]string, n)
	for i := range paths {
		paths[i] = fmt.Sprintf("%s.%d%s", base, i, ext)
	}
	return paths
}

// writeShards saves the store hash-partitioned across the given paths
// using the shared subject-hash shard function. Writes are crash-safe:
// each shard goes to a synced temp file atomically renamed into place,
// so an interrupted build leaves the previous snapshot intact.
func writeShards(st *core.Store, paths []string) error {
	n := len(paths)
	return st.SaveShardFiles(paths, func(t rdf.Triple) int { return shardkb.TripleShard(t, n) })
}

// checkShards reloads every partition and verifies (a) the per-shard
// fact counts sum to the store's count and (b) each reloaded fact lives
// in the partition its subject hashes to.
func checkShards(paths []string, want int) error {
	total := 0
	n := len(paths)
	for i, p := range paths {
		g, err := os.Open(p)
		if err != nil {
			return fmt.Errorf("check: %w", err)
		}
		reloaded := core.NewStore()
		got, err := reloaded.Load(g)
		g.Close()
		if err != nil {
			return fmt.Errorf("check: reload %s: %w", p, err)
		}
		if reloaded.Len() != got {
			return fmt.Errorf("check: %s: read %d facts but store holds %d", p, got, reloaded.Len())
		}
		for _, t := range reloaded.All() {
			if s := shardkb.TripleShard(t, n); s != i {
				return fmt.Errorf("check: %s holds %s, which hashes to shard %d", p, t, s)
			}
		}
		total += got
	}
	if total != want {
		return fmt.Errorf("check: shards round-trip %d facts, wrote %d", total, want)
	}
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("kbbuild: ")
	out := flag.String("out", "", "snapshot output path (default: stdout off)")
	scale := flag.Float64("scale", 1.0, "world scale factor")
	seed := flag.Int64("seed", 42, "generation seed")
	workers := flag.Int("workers", 0, "extraction parallelism (0 = all cores)")
	noReason := flag.Bool("no-reason", false, "disable consistency reasoning")
	reify := flag.String("reify", "", "also export SPOTL-style reified facts (metadata as triples) to this path")
	check := flag.Bool("check", false, "reload the written snapshot and verify the fact count round-trips")
	shards := flag.Int("shards", 1, "hash-partition the snapshot by subject into this many files")
	flag.Parse()
	if *check && *out == "" {
		log.Fatal("-check requires -out")
	}
	if *shards < 1 {
		log.Fatal("-shards must be >= 1")
	}
	if *shards > 1 && *out == "" {
		log.Fatal("-shards requires -out")
	}

	// Ctrl-C cancels the pipeline run cleanly instead of killing the
	// process mid-write: the stage loop and the map-reduce workers are
	// context-aware.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opt := pipeline.DefaultOptions()
	opt.World = synth.DefaultConfig().Scaled(*scale)
	opt.Seed = *seed
	opt.Workers = *workers
	opt.Reason = !*noReason

	res, err := pipeline.Run(ctx, opt)
	if err != nil {
		log.Fatal(err)
	}
	stats := res.KB.Stats()
	fmt.Printf("world: %d entities, %d gold facts\n", len(res.World.Entities), len(res.World.Facts))
	fmt.Printf("corpus: %d articles\n", len(res.Corpus.Articles))
	fmt.Printf("extraction: %d candidates -> %d accepted\n", res.Candidates, res.Accepted)
	fmt.Printf("kb: %d facts, %d entities, %d predicates\n", stats.Facts, stats.Entities, stats.Predicates)
	tp, fp, fn := pipeline.EvaluateFacts(res)
	fmt.Printf("fact quality vs ground truth: %v\n", eval.Score(tp, fp, fn))
	for _, st := range res.Timings {
		fmt.Printf("  stage %-10s %8v  %6d items\n", st.Stage, st.Duration.Round(1e6), st.Items)
	}
	if *out != "" {
		paths := shardPaths(*out, *shards)
		if err := writeShards(res.KB, paths); err != nil {
			log.Fatal(err)
		}
		if *shards > 1 {
			fmt.Printf("snapshot partitioned into %d shards: %s … %s\n", *shards, paths[0], paths[len(paths)-1])
		} else {
			fmt.Printf("snapshot written to %s\n", *out)
		}
		if *check {
			if err := checkShards(paths, stats.Facts); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("check: %d shard(s) round-trip %d facts\n", len(paths), stats.Facts)
		}
	}
	if *reify != "" {
		f, err := os.Create(*reify)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		triples := res.KB.ReifyAll(rdf.Triple{})
		if err := rdf.WriteAll(f, triples); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%d reified triples written to %s\n", len(triples), *reify)
	}
}
