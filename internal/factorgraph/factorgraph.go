// Package factorgraph implements factor graphs over boolean variables with
// Gibbs-sampling marginal inference — the statistical-learning machinery of
// DeepDive-style knowledge-base construction (§3): candidate facts become
// random variables, extractor confidences become priors, and correlations
// (mutual exclusion of contradictory facts, mutual support of corroborating
// ones) become weighted factors. Marginal probabilities then decide which
// facts enter the KB.
package factorgraph

import (
	"fmt"
	"math"
	"math/rand"
)

// Graph is a factor graph over boolean variables.
type Graph struct {
	names   []string
	factors []factor
	// adj[v] lists the factors touching variable v.
	adj [][]int
}

type factor struct {
	vars []int
	// logPot returns the log-potential of the factor under the given
	// assignment of its variables (aligned with vars).
	logPot func(vals []bool) float64
}

// NewGraph returns an empty graph.
func NewGraph() *Graph { return &Graph{} }

// AddVariable adds a boolean variable and returns its index.
func (g *Graph) AddVariable(name string) int {
	g.names = append(g.names, name)
	g.adj = append(g.adj, nil)
	return len(g.names) - 1
}

// Name returns a variable's name.
func (g *Graph) Name(v int) string { return g.names[v] }

// AddFactor attaches a log-potential over the given variables.
func (g *Graph) AddFactor(vars []int, logPot func(vals []bool) float64) error {
	for _, v := range vars {
		if v < 0 || v >= len(g.names) {
			return fmt.Errorf("factorgraph: variable %d out of range", v)
		}
	}
	idx := len(g.factors)
	g.factors = append(g.factors, factor{vars: append([]int(nil), vars...), logPot: logPot})
	for _, v := range vars {
		g.adj[v] = append(g.adj[v], idx)
	}
	return nil
}

// AddPrior biases a variable toward true with the given probability
// (converted to a log-odds unary factor).
func (g *Graph) AddPrior(v int, pTrue float64) error {
	const eps = 1e-6
	if pTrue < eps {
		pTrue = eps
	}
	if pTrue > 1-eps {
		pTrue = 1 - eps
	}
	logOdds := math.Log(pTrue / (1 - pTrue))
	return g.AddFactor([]int{v}, func(vals []bool) float64 {
		if vals[0] {
			return logOdds
		}
		return 0
	})
}

// AddMutex penalizes both variables being true by weight (soft mutual
// exclusion — e.g. two objects for a functional relation).
func (g *Graph) AddMutex(a, b int, weight float64) error {
	return g.AddFactor([]int{a, b}, func(vals []bool) float64 {
		if vals[0] && vals[1] {
			return -weight
		}
		return 0
	})
}

// Gibbs runs Gibbs sampling and returns the marginal P(v = true) for every
// variable, averaged over iterations after burn-in sweeps.
func (g *Graph) Gibbs(burnin, iterations int, seed int64) []float64 {
	n := len(g.names)
	rng := rand.New(rand.NewSource(seed))
	state := make([]bool, n)
	for v := range state {
		state[v] = rng.Intn(2) == 0
	}
	counts := make([]int, n)
	scratch := make([]bool, 8)
	condLogOdds := func(v int) float64 {
		// log P(v=1 | rest) - log P(v=0 | rest) over touching factors.
		delta := 0.0
		for _, fi := range g.adj[v] {
			f := g.factors[fi]
			if cap(scratch) < len(f.vars) {
				scratch = make([]bool, len(f.vars))
			}
			vals := scratch[:len(f.vars)]
			for i, fv := range f.vars {
				vals[i] = state[fv]
			}
			for i, fv := range f.vars {
				if fv == v {
					vals[i] = true
				}
			}
			lp1 := f.logPot(vals)
			for i, fv := range f.vars {
				if fv == v {
					vals[i] = false
				}
			}
			lp0 := f.logPot(vals)
			delta += lp1 - lp0
		}
		return delta
	}
	sweep := func(record bool) {
		for v := 0; v < n; v++ {
			p1 := sigmoid(condLogOdds(v))
			state[v] = rng.Float64() < p1
			if record && state[v] {
				counts[v]++
			}
		}
	}
	for i := 0; i < burnin; i++ {
		sweep(false)
	}
	for i := 0; i < iterations; i++ {
		sweep(true)
	}
	marg := make([]float64, n)
	for v := range marg {
		if iterations > 0 {
			marg[v] = float64(counts[v]) / float64(iterations)
		}
	}
	return marg
}

func sigmoid(x float64) float64 {
	if x >= 0 {
		z := math.Exp(-x)
		return 1 / (1 + z)
	}
	z := math.Exp(x)
	return z / (1 + z)
}
