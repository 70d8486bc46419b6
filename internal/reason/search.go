package reason

import "math/rand"

// weightTol is the margin by which an assignment must beat the incumbent
// to replace it. The running soft weight and an Evaluate sum add the same
// weights in different orders, so equal assignments differ by rounding
// noise, which must not read as an improvement.
const weightTol = 1e-9

// work counts what a search did, in units tests can bound by the size of
// the instance.
type work struct {
	visits int // clause records read or updated
	flips  int
}

// search is the incremental local-search state every solver runs on: the
// number of true literals per clause, the unsatisfied hard and soft
// clauses, and the soft weight satisfied, all kept current through the
// watch lists in O(occurrences of the flipped variable) per flip.
type search struct {
	p     *Problem
	vals  []bool
	nTrue []int // per clause: literals true under vals

	// Violated hard clauses: their count, and a min-heap that holds each
	// of them (plus ones satisfied since, dropped when they surface), so
	// repair always sees the lowest-numbered one.
	unsatHard int
	hardHeap  []int
	inHeap    []bool
	// Unsatisfied soft clauses; softPos is index+1.
	unsatSoft []int
	softPos   []int
	weight    float64 // soft weight satisfied

	// The best assignment seen since mark.
	best         []bool
	bestWeight   float64
	bestFeasible bool

	work work
}

func newSearch(p *Problem, vals []bool) *search {
	s := &search{
		p: p, vals: vals,
		nTrue:   make([]int, len(p.clauses)),
		inHeap:  make([]bool, len(p.clauses)),
		softPos: make([]int, len(p.clauses)),
	}
	for ci, c := range p.clauses {
		s.work.visits++
		for _, l := range c.Lits {
			if vals[l.Var] != l.Neg {
				s.nTrue[ci]++
			}
		}
		if s.nTrue[ci] == 0 {
			s.addUnsat(ci)
		} else if !c.Hard {
			s.weight += c.Weight
		}
	}
	return s
}

func (s *search) addUnsat(ci int) {
	if s.p.clauses[ci].Hard {
		s.unsatHard++
		if !s.inHeap[ci] {
			s.inHeap[ci] = true
			s.heapPush(ci)
		}
		return
	}
	s.unsatSoft = append(s.unsatSoft, ci)
	s.softPos[ci] = len(s.unsatSoft)
}

func (s *search) removeUnsat(ci int) {
	if s.p.clauses[ci].Hard {
		s.unsatHard-- // its heap entry is dropped by firstViolatedHard
		return
	}
	i, last := s.softPos[ci]-1, len(s.unsatSoft)-1
	moved := s.unsatSoft[last]
	s.unsatSoft[i], s.softPos[moved] = moved, i+1
	s.unsatSoft, s.softPos[ci] = s.unsatSoft[:last], 0
}

func (s *search) heapPush(ci int) {
	h := append(s.hardHeap, ci)
	for i := len(h) - 1; i > 0; {
		up := (i - 1) / 2
		if h[up] <= h[i] {
			break
		}
		h[up], h[i] = h[i], h[up]
		i = up
	}
	s.hardHeap = h
}

func (s *search) heapPop() {
	h := s.hardHeap
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		least := i
		for _, kid := range [2]int{2*i + 1, 2*i + 2} {
			if kid < len(h) && h[kid] < h[least] {
				least = kid
			}
		}
		if least == i {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	s.hardHeap = h
}

// firstViolatedHard returns the lowest-numbered violated hard clause, or
// -1.
func (s *search) firstViolatedHard() int {
	for len(s.hardHeap) > 0 {
		ci := s.hardHeap[0]
		if s.nTrue[ci] == 0 {
			return ci
		}
		s.inHeap[ci] = false
		s.heapPop()
	}
	return -1
}

// delta returns the change in clause ci's true-literal count if v flipped.
func (s *search) delta(ci, v int) int {
	d := 0
	for _, l := range s.p.clauses[ci].Lits {
		if l.Var != v {
			continue
		}
		if s.vals[v] != l.Neg {
			d--
		} else {
			d++
		}
	}
	return d
}

func (s *search) flip(v int) {
	s.work.flips++
	for _, ci := range s.p.watch[v] {
		s.work.visits++
		was := s.nTrue[ci] > 0
		s.nTrue[ci] += s.delta(ci, v)
		now := s.nTrue[ci] > 0
		if now == was {
			continue
		}
		c := &s.p.clauses[ci]
		if now {
			s.removeUnsat(ci)
			if !c.Hard {
				s.weight += c.Weight
			}
		} else {
			s.addUnsat(ci)
			if !c.Hard {
				s.weight -= c.Weight
			}
		}
	}
	s.vals[v] = !s.vals[v]
}

// flipLoss returns the soft weight lost by flipping v (positive = flip
// hurts).
func (s *search) flipLoss(v int) float64 {
	before, after := 0.0, 0.0
	for _, ci := range s.p.watch[v] {
		s.work.visits++
		c := &s.p.clauses[ci]
		if c.Hard {
			continue
		}
		if s.nTrue[ci] > 0 {
			before += c.Weight
		}
		if s.nTrue[ci]+s.delta(ci, v) > 0 {
			after += c.Weight
		}
	}
	return before - after
}

func (s *search) flipKeepsFeasible(v int) bool {
	for _, ci := range s.p.watch[v] {
		s.work.visits++
		if s.p.clauses[ci].Hard && s.nTrue[ci]+s.delta(ci, v) <= 0 {
			return false
		}
	}
	return true
}

// leastLoss returns the variable of clause ci whose flip loses the least
// soft weight, the first such on ties.
func (s *search) leastLoss(ci int) int {
	best, bestLoss := -1, 0.0
	for _, l := range s.p.clauses[ci].Lits {
		if loss := s.flipLoss(l.Var); best == -1 || loss < bestLoss {
			best, bestLoss = l.Var, loss
		}
	}
	return best
}

// greedy repairs hard violations, lowest-numbered clause first, by the
// least-loss flip, then makes one pass flipping every variable that gains
// soft weight and keeps the assignment feasible.
func (s *search) greedy() {
	for iter := 0; iter < 4*len(s.p.clauses)+16; iter++ {
		ci := s.firstViolatedHard()
		if ci < 0 {
			break
		}
		s.flip(s.leastLoss(ci))
	}
	for v := range s.vals {
		if s.flipLoss(v) < 0 && s.flipKeepsFeasible(v) {
			s.flip(v)
		}
	}
}

// mark makes the current assignment the incumbent.
func (s *search) mark() {
	s.best = append(s.best[:0], s.vals...)
	s.bestWeight, s.bestFeasible = s.weight, s.unsatHard == 0
}

// keepBest adopts the current assignment if it is feasible and the
// incumbent is not, or is lighter by more than weightTol.
func (s *search) keepBest() {
	if s.unsatHard == 0 && (!s.bestFeasible || s.weight > s.bestWeight+weightTol) {
		s.mark()
	}
}

// walk makes up to maxFlips WalkSAT moves from the current assignment:
// take the lowest-numbered violated hard clause, else a random
// unsatisfied soft one, and flip a random variable of it (with
// probability noise) or its least-loss one.
func (s *search) walk(maxFlips int, noise float64, rng *rand.Rand) {
	for i := 0; i < maxFlips; i++ {
		ci := s.firstViolatedHard()
		if ci < 0 {
			if len(s.unsatSoft) == 0 {
				return // everything satisfied
			}
			ci = s.unsatSoft[rng.Intn(len(s.unsatSoft))]
		}
		if lits := s.p.clauses[ci].Lits; rng.Float64() < noise {
			s.flip(lits[rng.Intn(len(lits))].Var)
		} else {
			s.flip(s.leastLoss(ci))
		}
		s.keepBest()
	}
}
