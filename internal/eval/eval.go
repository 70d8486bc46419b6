// Package eval provides the shared evaluation harness: precision, recall,
// F1, accuracy, set-based scoring against gold standards, and aligned
// text-table rendering for the experiment tables cmd/benchrunner prints.
package eval

import (
	"fmt"
	"math"
	"strings"
)

// PRF bundles precision, recall, and F1.
type PRF struct {
	Precision  float64
	Recall     float64
	F1         float64
	TP, FP, FN int
}

// Score computes PRF from counts.
func Score(tp, fp, fn int) PRF {
	p := PRF{TP: tp, FP: fp, FN: fn}
	if tp+fp > 0 {
		p.Precision = float64(tp) / float64(tp+fp)
	}
	if tp+fn > 0 {
		p.Recall = float64(tp) / float64(tp+fn)
	}
	if p.Precision+p.Recall > 0 {
		p.F1 = 2 * p.Precision * p.Recall / (p.Precision + p.Recall)
	}
	return p
}

// SetPRF scores a predicted set against a gold set.
func SetPRF(predicted, gold map[string]bool) PRF {
	tp, fp := 0, 0
	for p := range predicted {
		if gold[p] {
			tp++
		} else {
			fp++
		}
	}
	fn := 0
	for g := range gold {
		if !predicted[g] {
			fn++
		}
	}
	return Score(tp, fp, fn)
}

func (p PRF) String() string {
	return fmt.Sprintf("P=%.3f R=%.3f F1=%.3f (tp=%d fp=%d fn=%d)",
		p.Precision, p.Recall, p.F1, p.TP, p.FP, p.FN)
}

// Accuracy is correct/total (0 when total is 0).
func Accuracy(correct, total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

// PrecisionAtK scores the top-k of a ranked prediction list against gold.
func PrecisionAtK(ranked []string, gold map[string]bool, k int) float64 {
	if k > len(ranked) {
		k = len(ranked)
	}
	if k == 0 {
		return 0
	}
	hit := 0
	for _, p := range ranked[:k] {
		if gold[p] {
			hit++
		}
	}
	return float64(hit) / float64(k)
}

// Table renders aligned experiment tables.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable starts a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells are stringified with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

func formatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case v == math.Trunc(v) && math.Abs(v) < 1e9:
		return fmt.Sprintf("%.1f", v)
	case math.Abs(v) >= 1000:
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(cells)-1 {
				for p := len(c); p < widths[i]; p++ {
					b.WriteByte(' ')
				}
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}
