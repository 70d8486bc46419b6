package mapreduce

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
)

func wordCountMapper(record interface{}, emit func(string, interface{})) error {
	line, ok := record.(string)
	if !ok {
		return errors.New("not a string")
	}
	for _, w := range strings.Fields(line) {
		emit(w, 1)
	}
	return nil
}

func TestWordCount(t *testing.T) {
	inputs := []interface{}{
		"the quick brown fox",
		"the lazy dog",
		"the quick dog",
	}
	got, err := Run(context.Background(), inputs, wordCountMapper, CountReducer, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, kv := range got {
		counts[kv.Key] = kv.Value.(int)
	}
	want := map[string]int{"the": 3, "quick": 2, "brown": 1, "fox": 1, "lazy": 1, "dog": 2}
	if !reflect.DeepEqual(counts, want) {
		t.Errorf("counts = %v, want %v", counts, want)
	}
}

func TestOutputSortedByKey(t *testing.T) {
	inputs := []interface{}{"b a c", "c b a"}
	got, err := Run(context.Background(), inputs, wordCountMapper, CountReducer, Config{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Key > got[i].Key {
			t.Fatalf("output not sorted: %v", got)
		}
	}
}

func TestCombinerEquivalence(t *testing.T) {
	var inputs []interface{}
	for i := 0; i < 50; i++ {
		inputs = append(inputs, "alpha beta gamma alpha")
	}
	plain, err := Run(context.Background(), inputs, wordCountMapper, CountReducer, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	combined, err := Run(context.Background(), inputs, wordCountMapper, CountReducer, Config{Workers: 4, Combiner: CountReducer})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, combined) {
		t.Errorf("combiner changed results:\n%v\nvs\n%v", plain, combined)
	}
}

func TestWorkerCountsAgree(t *testing.T) {
	var inputs []interface{}
	for i := 0; i < 200; i++ {
		inputs = append(inputs, "x y z w v u t s")
	}
	base, err := Run(context.Background(), inputs, wordCountMapper, CountReducer, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		got, err := Run(context.Background(), inputs, wordCountMapper, CountReducer, Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, got) {
			t.Errorf("workers=%d results differ from workers=1", workers)
		}
	}
}

func TestMapErrorPropagates(t *testing.T) {
	inputs := []interface{}{"ok", 42} // 42 is not a string
	_, err := Run(context.Background(), inputs, wordCountMapper, CountReducer, Config{Workers: 2})
	if err == nil {
		t.Fatal("expected map error")
	}
	if !strings.Contains(err.Error(), "map record") {
		t.Errorf("error = %v", err)
	}
}

func TestReduceErrorPropagates(t *testing.T) {
	inputs := []interface{}{"a b c"}
	bad := func(key string, values []interface{}, emit func(interface{})) error {
		if key == "b" {
			return errors.New("boom")
		}
		return CountReducer(key, values, emit)
	}
	_, err := Run(context.Background(), inputs, wordCountMapper, bad, Config{Workers: 2})
	if err == nil || !strings.Contains(err.Error(), "reduce key") {
		t.Errorf("expected reduce error, got %v", err)
	}
}

func TestCountReducerTypeError(t *testing.T) {
	m := func(record interface{}, emit func(string, interface{})) error {
		emit("k", "not an int")
		return nil
	}
	if _, err := Run(context.Background(), []interface{}{"x"}, m, CountReducer, Config{}); err == nil {
		t.Error("expected type error from CountReducer")
	}
}

func TestEmptyInput(t *testing.T) {
	got, err := Run(context.Background(), nil, wordCountMapper, CountReducer, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("got %v", got)
	}
}

func TestMultipleEmitsPerReduce(t *testing.T) {
	m := func(record interface{}, emit func(string, interface{})) error {
		emit("k", record)
		return nil
	}
	r := func(key string, values []interface{}, emit func(interface{})) error {
		for _, v := range values {
			emit(v)
		}
		return nil
	}
	got, err := Run(context.Background(), []interface{}{"a", "b", "c"}, m, r, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Errorf("got %d outputs, want 3", len(got))
	}
}

// The zero Config runs GOMAXPROCS workers and as many partitions; with
// no default, no worker would map a record and the output would be empty.
func TestDefaultConfig(t *testing.T) {
	got, err := Run(context.Background(), []interface{}{"a b a"}, wordCountMapper, CountReducer, Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := []KV{{Key: "a", Value: 2}, {Key: "b", Value: 1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Run with zero Config = %v, want %v", got, want)
	}
}

func TestRunStreamMatchesRun(t *testing.T) {
	var inputs []interface{}
	for i := 0; i < 100; i++ {
		inputs = append(inputs, "stream the quick stream fox")
	}
	want, err := Run(context.Background(), inputs, wordCountMapper, CountReducer, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan interface{}, 3)
	go func() {
		defer close(ch)
		for _, in := range inputs {
			ch <- in
		}
	}()
	got, err := RunStream(context.Background(), ch, wordCountMapper, CountReducer, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("stream results differ:\n%v\nvs\n%v", want, got)
	}
}

func TestRunStreamMapError(t *testing.T) {
	ch := make(chan interface{}, 2)
	ch <- "ok"
	ch <- 42 // not a string
	close(ch)
	_, err := RunStream(context.Background(), ch, wordCountMapper, CountReducer, Config{Workers: 2})
	if err == nil || !strings.Contains(err.Error(), "map record") {
		t.Errorf("expected map error, got %v", err)
	}
}

func TestCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var inputs []interface{}
	for i := 0; i < 100; i++ {
		inputs = append(inputs, "a b c")
	}
	if _, err := Run(ctx, inputs, wordCountMapper, CountReducer, Config{Workers: 2}); !errors.Is(err, context.Canceled) {
		t.Errorf("Run with cancelled ctx = %v, want context.Canceled", err)
	}
	// RunStream must not hang on an open, empty channel once cancelled.
	ch := make(chan interface{})
	if _, err := RunStream(ctx, ch, wordCountMapper, CountReducer, Config{Workers: 2}); !errors.Is(err, context.Canceled) {
		t.Errorf("RunStream with cancelled ctx = %v, want context.Canceled", err)
	}
}
