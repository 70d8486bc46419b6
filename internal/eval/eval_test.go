package eval

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestScore(t *testing.T) {
	p := Score(8, 2, 4)
	if !almost(p.Precision, 0.8) || !almost(p.Recall, 8.0/12) {
		t.Errorf("PRF = %+v", p)
	}
	wantF1 := 2 * 0.8 * (8.0 / 12) / (0.8 + 8.0/12)
	if !almost(p.F1, wantF1) {
		t.Errorf("F1 = %v, want %v", p.F1, wantF1)
	}
}

func TestScoreZeroes(t *testing.T) {
	p := Score(0, 0, 0)
	if p.Precision != 0 || p.Recall != 0 || p.F1 != 0 {
		t.Errorf("zero counts should give zero scores: %+v", p)
	}
}

func TestScorePropertiesQuick(t *testing.T) {
	f := func(tp, fp, fn uint8) bool {
		p := Score(int(tp), int(fp), int(fn))
		return p.Precision >= 0 && p.Precision <= 1 &&
			p.Recall >= 0 && p.Recall <= 1 &&
			p.F1 >= 0 && p.F1 <= 1 &&
			p.F1 <= p.Precision+1e-9 || p.F1 <= p.Recall+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSetPRF(t *testing.T) {
	pred := map[string]bool{"a": true, "b": true, "c": true}
	gold := map[string]bool{"b": true, "c": true, "d": true, "e": true}
	p := SetPRF(pred, gold)
	if p.TP != 2 || p.FP != 1 || p.FN != 2 {
		t.Errorf("SetPRF = %+v", p)
	}
}

func TestAccuracy(t *testing.T) {
	if !almost(Accuracy(3, 4), 0.75) || Accuracy(0, 0) != 0 {
		t.Error("Accuracy wrong")
	}
}

func TestPrecisionAtK(t *testing.T) {
	gold := map[string]bool{"a": true, "c": true}
	ranked := []string{"a", "b", "c", "d"}
	if !almost(PrecisionAtK(ranked, gold, 1), 1.0) {
		t.Error("P@1 wrong")
	}
	if !almost(PrecisionAtK(ranked, gold, 2), 0.5) {
		t.Error("P@2 wrong")
	}
	if !almost(PrecisionAtK(ranked, gold, 10), 0.5) {
		t.Error("P@k beyond length should clamp")
	}
	if PrecisionAtK(nil, gold, 3) != 0 {
		t.Error("empty ranking should give 0")
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("E99: demo", "method", "accuracy", "n")
	tab.AddRow("prior", 0.61234, 100)
	tab.AddRow("joint", 0.87, 100)
	s := tab.String()
	if !strings.Contains(s, "E99: demo") || !strings.Contains(s, "0.612") {
		t.Errorf("table:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 4 { // title, header, separator, 2 rows -> 5? title+header+sep+2 = 5
		if len(lines) != 5 {
			t.Errorf("table has %d lines:\n%s", len(lines), s)
		}
	}
}

func TestTableFloatFormatting(t *testing.T) {
	tab := NewTable("", "v")
	tab.AddRow(3.0)
	tab.AddRow(12345.6)
	tab.AddRow(0.123456)
	s := tab.String()
	if !strings.Contains(s, "3.0") || !strings.Contains(s, "12346") || !strings.Contains(s, "0.123") {
		t.Errorf("float formatting:\n%s", s)
	}
}

func TestPRFString(t *testing.T) {
	s := Score(1, 1, 1).String()
	if !strings.Contains(s, "P=0.500") {
		t.Errorf("String = %q", s)
	}
}
