package factorgraph

import (
	"math"
	"testing"
)

func TestPriorMarginal(t *testing.T) {
	g := NewGraph()
	v := g.AddVariable("x")
	if err := g.AddPrior(v, 0.9); err != nil {
		t.Fatal(err)
	}
	marg := g.Gibbs(100, 2000, 1)
	if math.Abs(marg[v]-0.9) > 0.05 {
		t.Errorf("marginal = %v, want ~0.9", marg[v])
	}
}

func TestPriorExtremesClamped(t *testing.T) {
	g := NewGraph()
	a := g.AddVariable("a")
	b := g.AddVariable("b")
	if err := g.AddPrior(a, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.AddPrior(b, 1); err != nil {
		t.Fatal(err)
	}
	marg := g.Gibbs(50, 1000, 2)
	if marg[a] > 0.05 || marg[b] < 0.95 {
		t.Errorf("marginals = %v", marg)
	}
}

func TestMutexSuppressesWeaker(t *testing.T) {
	g := NewGraph()
	strong := g.AddVariable("strong")
	weak := g.AddVariable("weak")
	g.AddPrior(strong, 0.85)
	g.AddPrior(weak, 0.6)
	g.AddMutex(strong, weak, 6)
	marg := g.Gibbs(200, 4000, 3)
	// Exact marginal for this network is ~0.69 (the mutex drags both
	// down; the stronger prior much less).
	if marg[strong] < 0.6 {
		t.Errorf("strong marginal = %v", marg[strong])
	}
	if marg[weak] > 0.45 {
		t.Errorf("weak marginal should drop under mutex: %v", marg[weak])
	}
	if marg[weak] >= marg[strong] {
		t.Errorf("mutex should favor stronger prior: %v vs %v", marg[weak], marg[strong])
	}
}

func TestSupportLiftsBoth(t *testing.T) {
	g := NewGraph()
	a := g.AddVariable("a")
	b := g.AddVariable("b")
	g.AddPrior(a, 0.5)
	g.AddPrior(b, 0.8)
	g.AddFactor([]int{a, b}, func(v []bool) float64 { // support: reward both true
		if v[0] && v[1] {
			return 3
		}
		return 0
	})
	marg := g.Gibbs(200, 4000, 4)
	if marg[a] < 0.6 {
		t.Errorf("supported variable should rise above its prior: %v", marg[a])
	}
}

func TestImplication(t *testing.T) {
	g := NewGraph()
	a := g.AddVariable("a")
	b := g.AddVariable("b")
	g.AddPrior(a, 0.9)
	g.AddPrior(b, 0.3)
	g.AddFactor([]int{a, b}, func(v []bool) float64 { // a -> b: penalise a && !b
		if v[0] && !v[1] {
			return -5
		}
		return 0
	})
	marg := g.Gibbs(200, 4000, 5)
	if marg[b] < 0.5 {
		t.Errorf("implication should lift consequent: %v", marg[b])
	}
}

func TestAddFactorOutOfRange(t *testing.T) {
	g := NewGraph()
	if err := g.AddFactor([]int{3}, func([]bool) float64 { return 0 }); err == nil {
		t.Error("expected range error")
	}
}

func TestGibbsDeterministicPerSeed(t *testing.T) {
	build := func() *Graph {
		g := NewGraph()
		a := g.AddVariable("a")
		b := g.AddVariable("b")
		g.AddPrior(a, 0.7)
		g.AddPrior(b, 0.4)
		g.AddMutex(a, b, 2)
		return g
	}
	m1 := build().Gibbs(50, 500, 42)
	m2 := build().Gibbs(50, 500, 42)
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatalf("same-seed runs differ: %v vs %v", m1, m2)
		}
	}
}

func TestNamesAndCounts(t *testing.T) {
	g := NewGraph()
	v := g.AddVariable("fact(a,b)")
	w := g.AddVariable("fact(a,c)")
	if v != 0 || w != 1 || g.Name(v) != "fact(a,b)" || g.Name(w) != "fact(a,c)" {
		t.Error("bookkeeping wrong")
	}
}

// The DeepDive-shaped scenario of experiment E5 in miniature: joint
// inference must beat independent thresholding when correlations carry
// the signal.
func TestJointBeatsIndependentOnCorrelatedCandidates(t *testing.T) {
	// Ground truth: fact A true, fact B false. Both have ambiguous priors
	// (0.55 / 0.6), but A is supported by a high-confidence corroborator
	// C (0.9) and B contradicts C via functionality.
	g := NewGraph()
	a := g.AddVariable("A")
	b := g.AddVariable("B")
	c := g.AddVariable("C")
	g.AddPrior(a, 0.55)
	g.AddPrior(b, 0.6)
	g.AddPrior(c, 0.9)
	g.AddFactor([]int{a, c}, func(v []bool) float64 { // C corroborates A
		if v[0] && v[1] {
			return 4
		}
		return 0
	})
	g.AddMutex(b, c, 4)
	marg := g.Gibbs(200, 4000, 6)
	// Independent thresholding at 0.5 accepts both A and B. Joint
	// inference must separate them.
	if marg[a] <= marg[b] {
		t.Errorf("joint inference failed to separate: A=%v B=%v", marg[a], marg[b])
	}
	if marg[b] > 0.5 {
		t.Errorf("contradicted fact should fall below threshold: %v", marg[b])
	}
}
