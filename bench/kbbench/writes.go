package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"kbharvest/internal/core"
	"kbharvest/internal/ingest"
	"kbharvest/internal/pipeline"
	"kbharvest/internal/rdf"
	"kbharvest/internal/synth"
)

// pipelineOptions are the options kbbuild derives from the workload's
// flags.
func pipelineOptions(w workloadDef, seed int64) pipeline.Options {
	opt := pipeline.DefaultOptions()
	opt.World = synth.DefaultConfig().Scaled(w.scale)
	opt.Seed = seed
	opt.Workers = 0
	opt.Reason = w.reason
	return opt
}

// runPipeline builds the workload's KB in-process and reports each
// stage from Result.Timings. A stage the options switch off reads 0.
func runPipeline(ctx context.Context, w workloadDef, seed int64, r *report) (*pipeline.Result, error) {
	t0 := time.Now()
	res, err := pipeline.Run(ctx, pipelineOptions(w, seed))
	r.tally.add(err)
	if err != nil {
		return nil, err
	}
	wall := time.Since(t0)
	for _, stage := range []string{"generate", "taxonomy", "extract", "reason", "assert", "labels", "nedmodels"} {
		r.metrics["pipeline."+stage+"_ms"] = 0
	}
	var sum time.Duration
	for _, st := range res.Timings {
		r.metrics["pipeline."+st.Stage+"_ms"] = millis(st.Duration)
		sum += st.Duration
	}
	r.metrics["pipeline.candidates"] = float64(res.Candidates)
	r.metrics["pipeline.accepted"] = float64(res.Accepted)
	r.notef("pipeline.Run: %d articles, %d facts, wall %.1f ms, stages sum to %.1f ms (%.1f%%)",
		len(res.Corpus.Articles), res.KB.Len(), millis(wall), millis(sum), 100*float64(sum)/float64(wall))
	return res, nil
}

// writeReps is how often each write-side measurement repeats; the
// median is reported.
const writeReps = 3

// medianOf times f writeReps times; f builds whatever fresh state it needs.
func medianOf(f func() error) (time.Duration, error) {
	xs := make([]float64, writeReps)
	for i := range xs {
		runtime.GC()
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		xs[i] = float64(time.Since(t0))
	}
	return time.Duration(median(xs)), nil
}

// writeRungs measures the write side of the layers over the facts of
// st: the ingest queue, the store's three insert paths, snapshot save
// and load, and the term parser underneath load.
func writeRungs(ctx context.Context, st *core.Store, dir string, m map[string]float64) error {
	var ts []rdf.Triple
	var infos []core.FactInfo
	st.MatchFunc(rdf.Triple{}, func(id core.FactID, t rdf.Triple) bool {
		info, _ := st.Info(id)
		ts = append(ts, t)
		infos = append(infos, info)
		return true
	})
	facts := float64(len(ts))
	perFact := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / facts }

	d, err := medianOf(func() error {
		in := ingest.New(ctx, core.NewStore(), ingest.Options{})
		const producers = 2
		errs := make([]error, producers)
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				prod := in.Producer()
				for i := p; i < len(ts) && errs[p] == nil; i += producers {
					errs[p] = prod.Emit(ts[i], infos[i])
				}
			}(p)
		}
		wg.Wait()
		if err := in.Close(); err != nil {
			return err
		}
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	m["ingest.ns_per_fact"] = perFact(d)

	d, _ = medianOf(func() error {
		s := core.NewStore()
		for _, t := range ts {
			s.Add(t)
		}
		return nil
	})
	m["core.add_ns_per_fact"] = perFact(d)

	d, _ = medianOf(func() error {
		s := core.NewStore()
		for i := 0; i < len(ts); i += ingest.DefaultBatchSize {
			j := i + ingest.DefaultBatchSize
			if j > len(ts) {
				j = len(ts)
			}
			s.AddBatchMeta(ts[i:j], infos[i:j])
		}
		return nil
	})
	m["core.addbatch_ns_per_fact"] = perFact(d)

	var snap bytes.Buffer
	d, err = medianOf(func() error {
		snap.Reset()
		return st.Save(&snap)
	})
	if err != nil {
		return err
	}
	m["core.save_ns_per_fact"] = perFact(d)

	d, err = medianOf(func() error { return st.SaveFile(filepath.Join(dir, "ladder.nt")) })
	if err != nil {
		return err
	}
	m["core.savefile_ms"] = millis(d)

	var loaded *core.Store
	d, err = medianOf(func() error {
		loaded = core.NewStore()
		_, err := loaded.Load(bytes.NewReader(snap.Bytes()))
		return err
	})
	if err != nil {
		return err
	}
	m["core.load_ns_per_fact"] = perFact(d)
	if loaded.Len() != len(ts) {
		return fmt.Errorf("snapshot round trip: loaded %d facts, saved %d", loaded.Len(), len(ts))
	}

	// What one more loaded copy of the KB keeps alive on the heap.
	var m0, m1 runtime.MemStats
	loaded = nil
	runtime.GC()
	runtime.ReadMemStats(&m0)
	loaded = core.NewStore()
	if _, err := loaded.Load(bytes.NewReader(snap.Bytes())); err != nil {
		return err
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	m["core.heap_bytes_per_fact"] = (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / facts
	runtime.KeepAlive(loaded)

	terms := make([]string, 0, 3*len(ts))
	for _, t := range ts {
		terms = append(terms, t.S.String(), t.P.String(), t.O.String())
	}
	d, err = medianOf(func() error {
		for _, s := range terms {
			if _, err := rdf.ParseTerm(s); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["rdf.parse_ns_per_term"] = float64(d.Nanoseconds()) / float64(len(terms))
	return nil
}
