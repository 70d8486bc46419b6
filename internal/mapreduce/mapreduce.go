// Package mapreduce is an in-process map-reduce engine. The tutorial
// highlights "big-data techniques like frequent sequence mining and
// map-reduce computation" as the scalability substrate of open information
// extraction (§3); this package supplies the programming model — mappers,
// hash-partitioned shuffle, optional combiners, reducers — with a bounded
// worker pool, so extraction jobs can demonstrate near-linear scaling with
// worker count (experiment E8).
//
// Jobs are context-aware and cancellable: map and reduce workers check the
// context between records and between keys, so Run returns promptly with
// the context error once it is cancelled. Besides the slice entry point
// (Run), RunStream consumes records from a channel, letting callers feed
// inputs as they are produced instead of materializing the whole input in
// one []interface{} up front.
package mapreduce

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"sync"
)

// KV is one intermediate key-value pair.
type KV struct {
	Key   string
	Value interface{}
}

// MapFunc consumes one input record and emits intermediate pairs.
type MapFunc func(record interface{}, emit func(key string, value interface{})) error

// ReduceFunc folds all values of one key into zero or more outputs.
type ReduceFunc func(key string, values []interface{}, emit func(value interface{})) error

// Config tunes a job.
type Config struct {
	// Workers is the mapper/reducer parallelism and the number of shuffle
	// partitions. Defaults to GOMAXPROCS.
	Workers int
	// Combiner, if set, pre-reduces mapper-local outputs per key before
	// the shuffle, cutting shuffle volume (the classic word-count
	// optimization).
	Combiner ReduceFunc
}

// Run executes the job over the input records and returns the reducer
// outputs grouped by key, sorted by key for determinism. Cancelling the
// context aborts the job between records/keys with the context error.
func Run(ctx context.Context, inputs []interface{}, m MapFunc, r ReduceFunc, cfg Config) ([]KV, error) {
	return run(ctx, inputs, nil, m, r, cfg)
}

// RunStream is Run over a record channel: map workers pull records as they
// arrive, so the caller can generate inputs incrementally (and stop early
// on cancellation) instead of boxing the entire input into one slice.
// Record-to-worker assignment is scheduling-dependent, so jobs whose
// reducers are order-sensitive within a key should use Run.
func RunStream(ctx context.Context, records <-chan interface{}, m MapFunc, r ReduceFunc, cfg Config) ([]KV, error) {
	return run(ctx, nil, records, m, r, cfg)
}

// run applies Config's defaults and runs the map and reduce phases over
// inputs or, when records is not nil, over records.
func run(ctx context.Context, inputs []interface{}, records <-chan interface{}, m MapFunc, r ReduceFunc, cfg Config) ([]KV, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	parts, err := mapPhase(ctx, inputs, records, m, cfg)
	if err != nil {
		return nil, err
	}
	return reducePhase(ctx, parts, r)
}

// mapPhase fans inputs over workers; each worker keeps per-partition
// buffers to avoid lock contention, merged at the end. Records come from
// the slice (strided, deterministic assignment) or, if records != nil,
// from the channel (dynamic assignment).
func mapPhase(ctx context.Context, inputs []interface{}, records <-chan interface{}, mapFn MapFunc, cfg Config) ([]map[string][]interface{}, error) {
	nw := cfg.Workers
	type workerState struct {
		parts []map[string][]interface{}
		err   error
	}
	states := make([]workerState, nw)
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		states[w].parts = make([]map[string][]interface{}, nw)
		for p := range states[w].parts {
			states[w].parts[p] = make(map[string][]interface{})
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := &states[w]
			emit := func(key string, value interface{}) {
				p := partitionOf(key, nw)
				st.parts[p][key] = append(st.parts[p][key], value)
			}
			mapRecords := func() error {
				if records != nil {
					for n := 0; ; n++ {
						select {
						case <-ctx.Done():
							return fmt.Errorf("mapreduce: map: %w", ctx.Err())
						case rec, ok := <-records:
							if !ok {
								return nil
							}
							if err := mapFn(rec, emit); err != nil {
								return fmt.Errorf("mapreduce: map record (worker %d, #%d): %w", w, n, err)
							}
						}
					}
				}
				for i := w; i < len(inputs); i += nw {
					if err := ctx.Err(); err != nil {
						return fmt.Errorf("mapreduce: map: %w", err)
					}
					if err := mapFn(inputs[i], emit); err != nil {
						return fmt.Errorf("mapreduce: map record %d: %w", i, err)
					}
				}
				return nil
			}
			if err := mapRecords(); err != nil {
				st.err = err
				return
			}
			if cfg.Combiner != nil {
				for p := range st.parts {
					combined, err := combine(cfg.Combiner, st.parts[p])
					if err != nil {
						st.err = err
						return
					}
					st.parts[p] = combined
				}
			}
		}(w)
	}
	wg.Wait()
	for w := range states {
		if states[w].err != nil {
			return nil, states[w].err
		}
	}
	// Merge worker-local partitions into global partitions.
	global := make([]map[string][]interface{}, nw)
	for p := range global {
		global[p] = make(map[string][]interface{})
		for w := 0; w < nw; w++ {
			for k, vs := range states[w].parts[p] {
				global[p][k] = append(global[p][k], vs...)
			}
		}
	}
	return global, nil
}

func combine(c ReduceFunc, part map[string][]interface{}) (map[string][]interface{}, error) {
	out := make(map[string][]interface{}, len(part))
	for k, vs := range part {
		var combined []interface{}
		if err := c(k, vs, func(v interface{}) { combined = append(combined, v) }); err != nil {
			return nil, fmt.Errorf("mapreduce: combine key %q: %w", k, err)
		}
		out[k] = combined
	}
	return out, nil
}

// reducePhase reduces each partition on its own goroutine: there are as
// many partitions as workers.
func reducePhase(ctx context.Context, parts []map[string][]interface{}, reduceFn ReduceFunc) ([]KV, error) {
	results := make([][]KV, len(parts))
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for p := range parts {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			keys := make([]string, 0, len(parts[p]))
			for k := range parts[p] {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				if err := ctx.Err(); err != nil {
					errs[p] = fmt.Errorf("mapreduce: reduce: %w", err)
					return
				}
				err := reduceFn(k, parts[p][k], func(v interface{}) {
					results[p] = append(results[p], KV{Key: k, Value: v})
				})
				if err != nil {
					errs[p] = fmt.Errorf("mapreduce: reduce key %q: %w", k, err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var out []KV
	for p := range results {
		out = append(out, results[p]...)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Key < out[k].Key })
	return out, nil
}

func partitionOf(key string, n int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(n))
}

// CountReducer sums integer values — the standard counting reducer, usable
// as both reducer and combiner.
func CountReducer(key string, values []interface{}, emit func(interface{})) error {
	total := 0
	for _, v := range values {
		n, ok := v.(int)
		if !ok {
			return fmt.Errorf("CountReducer: value for %q is %T, not int", key, v)
		}
		total += n
	}
	emit(total)
	return nil
}
