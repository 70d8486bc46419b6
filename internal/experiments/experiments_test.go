package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"kbharvest/internal/eval"
)

var update = flag.Bool("update", false, "rewrite testdata/E*.golden from this run's tables")

var (
	runsMu sync.Mutex
	runs   = map[string][]*eval.Table{}
)

// tables runs experiment id once per GOMAXPROCS setting and hands every
// test the same tables, so the shape tests and the golden check share one
// run, and -cpu 1,2,4 runs each experiment at every width.
func tables(id string) []*eval.Table {
	runsMu.Lock()
	defer runsMu.Unlock()
	key := fmt.Sprintf("%s/%d", id, runtime.GOMAXPROCS(0))
	if tabs, ok := runs[key]; ok {
		return tabs
	}
	e, ok := ByID(id)
	if !ok {
		panic("no experiment " + id)
	}
	runs[key] = e.Run()
	return runs[key]
}

// timingColumns head the cells that measure the machine rather than the
// method; the golden files hold "~" there.
var timingColumns = map[string]bool{"ms": true, "docs/s": true, "speedup": true}

// goldenText renders tabs as benchrunner prints them, timing cells masked.
func goldenText(tabs []*eval.Table) string {
	var b strings.Builder
	for i, tab := range tabs {
		masked := eval.NewTable(tab.Title, tab.Headers...)
		for _, row := range tab.Rows {
			row = slices.Clone(row)
			for c, h := range tab.Headers {
				if timingColumns[h] && c < len(row) {
					row[c] = "~"
				}
			}
			masked.Rows = append(masked.Rows, row)
		}
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(masked.String())
	}
	return b.String()
}

// Every non-timing cell of every experiment's tables is pinned in
// testdata/<ID>.golden: a change to a number the paper's claims rest on
// fails here. After a deliberate change, rewrite the files with
// go test ./internal/experiments -update and review their diff.
func TestGoldenTables(t *testing.T) {
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			got := goldenText(tables(e.ID))
			path := filepath.Join("testdata", e.ID+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (go test ./internal/experiments -update writes it)", err)
			}
			if got != string(want) {
				t.Errorf("tables differ from %s\ngot:\n%s\nwant:\n%s", path, got, want)
			}
		})
	}
}

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 15 {
		t.Fatalf("registry has %d experiments, want 15", len(all))
	}
	for i, e := range all {
		want := "E" + strconv.Itoa(i+1)
		if e.ID != want {
			t.Errorf("experiment %d has ID %s, want %s", i, e.ID, want)
		}
		if e.Claim == "" || e.Run == nil {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
	if _, ok := ByID("E7"); !ok {
		t.Error("ByID(E7) failed")
	}
	if _, ok := ByID("E99"); ok {
		t.Error("ByID(E99) should fail")
	}
}

// parseCell reads a numeric table cell.
func parseCell(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(s, "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("non-numeric cell %q", s)
	}
	return v
}

func TestE1Shape(t *testing.T) {
	tabs := tables("E1")
	if len(tabs) != 1 || len(tabs[0].Rows) != 4 {
		t.Fatalf("E1 tables = %+v", tabs)
	}
	for _, row := range tabs[0].Rows {
		if p := parseCell(t, row[1]); p < 0.9 {
			t.Errorf("E1 type precision %v too low in row %v", p, row)
		}
		if r := parseCell(t, row[2]); r < 0.95 {
			t.Errorf("E1 type recall %v too low in row %v", r, row)
		}
	}
}

func TestE2Shape(t *testing.T) {
	tabs := tables("E2")
	if len(tabs) != 2 {
		t.Fatalf("E2 tables = %d", len(tabs))
	}
	for _, row := range tabs[0].Rows {
		if p5 := parseCell(t, row[2]); p5 < 0.6 {
			t.Errorf("E2 P@5 = %v in row %v", p5, row)
		}
	}
	if acc := parseCell(t, tabs[1].Rows[0][1]); acc < 0.8 {
		t.Errorf("E2b Hearst accuracy = %v", acc)
	}
}

func TestE3Shape(t *testing.T) {
	tabs := tables("E3")
	rows := tabs[0].Rows
	if len(rows) != 4 {
		t.Fatalf("E3 rows = %d", len(rows))
	}
	// Recall grows (or holds) with iterations; final precision below first.
	firstP := parseCell(t, rows[0][3])
	lastP := parseCell(t, rows[len(rows)-1][3])
	firstR := parseCell(t, rows[0][4])
	lastR := parseCell(t, rows[len(rows)-1][4])
	if lastR < firstR {
		t.Errorf("E3 recall should grow: %v -> %v", firstR, lastR)
	}
	if lastP > firstP {
		t.Errorf("E3 precision should decay or hold: %v -> %v", firstP, lastP)
	}
}

func TestE4Shape(t *testing.T) {
	tabs := tables("E4")
	rows := tabs[0].Rows
	if len(rows) != 4 {
		t.Fatalf("E4 rows = %d", len(rows))
	}
	// The learned extractor must beat the basic hand-pattern set on F1
	// (it learns the paraphrases the basic set misses).
	basicF1 := parseCell(t, rows[0][4])
	percF1 := parseCell(t, rows[2][4])
	if percF1 <= basicF1 {
		t.Errorf("E4 perceptron F1 %v should beat basic patterns %v", percF1, basicF1)
	}
	// And basic patterns keep higher precision than recall (the
	// incomplete-coverage signature).
	basicP := parseCell(t, rows[0][2])
	basicR := parseCell(t, rows[0][3])
	if basicP <= basicR {
		t.Errorf("E4 basic patterns should be precision-heavy: P=%v R=%v", basicP, basicR)
	}
}

func TestE5Shape(t *testing.T) {
	tabs := tables("E5")
	rows := tabs[0].Rows
	indepP := parseCell(t, rows[0][2])
	jointP := parseCell(t, rows[1][2])
	if jointP < indepP {
		t.Errorf("E5 joint precision %v below independent %v", jointP, indepP)
	}
}

func TestE6Shape(t *testing.T) {
	tabs := tables("E6")
	rows := tabs[0].Rows
	rawP := parseCell(t, rows[0][2])
	walkP := parseCell(t, rows[2][2])
	if walkP < rawP {
		t.Errorf("E6 WalkSAT precision %v below raw %v", walkP, rawP)
	}
}

func TestE7Shape(t *testing.T) {
	tabs := tables("E7")
	rows := tabs[0].Rows
	// Unconstrained yields more, constrained is more precise.
	yieldNone := parseCell(t, rows[0][1])
	yieldFull := parseCell(t, rows[2][1])
	precNone := parseCell(t, rows[0][3])
	precFull := parseCell(t, rows[2][3])
	if yieldNone <= yieldFull {
		t.Errorf("E7 unconstrained yield %v should exceed constrained %v", yieldNone, yieldFull)
	}
	if precFull < precNone {
		t.Errorf("E7 constrained precision %v below unconstrained %v", precFull, precNone)
	}
}

// E8's wall-clock columns depend on the machine; what the job computes
// must not. Every worker count — and with it every shuffle partition
// count — has to produce the same candidate keys with the same counts,
// and those counts have to add up to the same number of emissions.
func TestE8Shape(t *testing.T) {
	tabs := tables("E8")
	if len(tabs) != 1 {
		t.Fatalf("E8 tables = %d", len(tabs))
	}
	rows := tabs[0].Rows
	if len(rows) != 4 {
		t.Fatalf("E8 rows = %d", len(rows))
	}
	for _, row := range rows {
		t.Logf("E8 workers=%s speedup=%s keys=%s emitted=%s digest=%s", row[0], row[4], row[5], row[6], row[7])
		keys, emitted := parseCell(t, row[5]), parseCell(t, row[6])
		if keys == 0 || emitted < keys {
			t.Errorf("E8 workers=%s: %v keys from %v emissions", row[0], keys, emitted)
		}
		for _, col := range []int{5, 6, 7} {
			if row[col] != rows[0][col] {
				t.Errorf("E8 %s = %s at %s workers, %s at %s: output depends on parallelism",
					tabs[0].Headers[col], row[col], row[0], rows[0][col], rows[0][0])
			}
		}
	}
}

func TestE9Shape(t *testing.T) {
	tabs := tables("E9")
	rows := tabs[0].Rows
	// Lower support -> more patterns.
	first := parseCell(t, rows[0][2])
	last := parseCell(t, rows[len(rows)-1][2])
	if last <= first {
		t.Errorf("E9 pattern count should grow as support drops: %v -> %v", first, last)
	}
	if len(tabs[1].Rows) == 0 {
		t.Error("E9b top phrases empty")
	}
}

func TestE10Shape(t *testing.T) {
	tabs := tables("E10")
	if len(tabs[0].Rows) == 0 {
		t.Fatal("E10 empty")
	}
	for _, row := range tabs[0].Rows {
		if acc := parseCell(t, row[2]); acc < 0.6 {
			t.Errorf("E10 begin accuracy %v in row %v", acc, row)
		}
	}
}

func TestE11Shape(t *testing.T) {
	tabs := tables("E11")
	for _, row := range tabs[0].Rows {
		if p := parseCell(t, row[2]); p < 0.85 {
			t.Errorf("E11 precision %v in row %v", p, row)
		}
	}
}

func TestE12Shape(t *testing.T) {
	tabs := tables("E12")
	if len(tabs) != 3 || len(tabs[1].Rows) == 0 {
		t.Fatal("E12 missing tables")
	}
	// Property extraction must be high-precision on the commonsense corpus.
	for _, row := range tabs[2].Rows {
		if p := parseCell(t, row[2]); p < 0.9 {
			t.Errorf("E12c precision %v in row %v", p, row)
		}
	}
	// marriedTo symmetry should be among the top rules.
	found := false
	for _, row := range tabs[1].Rows {
		if strings.Contains(row[0], "kb:marriedTo(y,x) => kb:marriedTo(x,y)") {
			found = true
		}
	}
	if !found {
		t.Errorf("E12 top rules missing marriedTo symmetry: %v", tabs[1].Rows)
	}
}

func TestE13Shape(t *testing.T) {
	tabs := tables("E13")
	rows := tabs[0].Rows
	prior := parseCell(t, rows[0][2])
	ctx := parseCell(t, rows[1][2])
	joint := parseCell(t, rows[2][2])
	if ctx <= prior {
		t.Errorf("E13 context %v should beat prior %v", ctx, prior)
	}
	if joint < ctx-0.02 {
		t.Errorf("E13 joint %v below context %v", joint, ctx)
	}
}

func TestE14Shape(t *testing.T) {
	tabs := tables("E14")
	rows := tabs[0].Rows
	fullPairs := parseCell(t, rows[0][1])
	blockedPairs := parseCell(t, rows[1][1])
	if blockedPairs >= fullPairs {
		t.Errorf("E14 blocking did not prune: %v vs %v", blockedPairs, fullPairs)
	}
	ruleF1 := parseCell(t, rows[1][5])
	learnedF1 := parseCell(t, rows[2][5])
	if learnedF1 <= ruleF1 {
		t.Errorf("E14 learned F1 %v should beat rule %v", learnedF1, ruleF1)
	}
	// E14b: similarity propagation beats name-only on ambiguous names.
	if len(tabs) != 2 {
		t.Fatalf("E14 tables = %d", len(tabs))
	}
	nameF1 := parseCell(t, tabs[1].Rows[0][3])
	floodF1 := parseCell(t, tabs[1].Rows[1][3])
	if floodF1 <= nameF1 {
		t.Errorf("E14b propagation F1 %v should beat name-only %v", floodF1, nameF1)
	}
}

func TestE15Shape(t *testing.T) {
	tabs := tables("E15")
	rows := tabs[0].Rows
	stringAcc := parseCell(t, rows[0][2])
	nedAcc := parseCell(t, rows[1][2])
	kbAcc := parseCell(t, rows[2][2])
	if nedAcc <= stringAcc {
		t.Errorf("E15 NED accuracy %v should beat string matching %v", nedAcc, stringAcc)
	}
	if kbAcc <= nedAcc {
		t.Errorf("E15 KB-date attribution %v should beat plain NED %v", kbAcc, nedAcc)
	}
	if len(tabs[1].Rows) != 2 {
		t.Errorf("E15b should track 2 lines: %v", tabs[1].Rows)
	}
}
