package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"kbharvest/internal/rdf"
)

func TestIntervalBasics(t *testing.T) {
	iv := Interval{10, 20}
	if !iv.Valid() || !iv.Contains(10) || !iv.Contains(20) || iv.Contains(21) || iv.Contains(9) {
		t.Error("Contains wrong")
	}
	if iv.Days() != 11 {
		t.Errorf("Days = %d, want 11", iv.Days())
	}
	if (Interval{5, 4}).Valid() {
		t.Error("inverted interval should be invalid")
	}
	if (Interval{5, 4}).Days() != 0 {
		t.Error("invalid interval should have 0 days")
	}
	if Always.Days() != MaxDay {
		t.Error("Always should saturate Days")
	}
}

func TestIntervalOverlapUnion(t *testing.T) {
	a := Interval{0, 10}
	b := Interval{5, 15}
	c := Interval{11, 20}
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Error("a and b should overlap")
	}
	if a.Overlaps(c) {
		t.Error("a and c should not overlap")
	}
	if u := a.Union(c); u != (Interval{0, 20}) {
		t.Errorf("Union = %v", u)
	}
}

func TestIntervalString(t *testing.T) {
	if got := (Interval{1, 2}).String(); got != "[1,2]" {
		t.Errorf("String = %q", got)
	}
	if got := Always.String(); got != "[-inf,+inf]" {
		t.Errorf("Always.String = %q", got)
	}
}

func TestIntervalPropertiesQuick(t *testing.T) {
	gen := func(r *rand.Rand) Interval {
		a, b := r.Intn(1000)-500, r.Intn(1000)-500
		if a > b {
			a, b = b, a
		}
		return Interval{a, b}
	}
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		a, b := gen(r), gen(r)
		// Overlap symmetric, and true exactly when some day lies in both.
		if a.Overlaps(b) != b.Overlaps(a) {
			t.Fatalf("overlap asymmetric: %v %v", a, b)
		}
		if shared := max(a.Begin, b.Begin) <= min(a.End, b.End); a.Overlaps(b) != shared {
			t.Fatalf("Overlaps(%v, %v) = %v", a, b, a.Overlaps(b))
		}
		// The union contains both.
		u := a.Union(b)
		if u.Begin > a.Begin || u.End < a.End || u.Begin > b.Begin || u.End < b.End {
			t.Fatalf("union %v does not contain %v,%v", u, a, b)
		}
	}
	// quick.Check: a day in both intervals means they overlap, and a day
	// in either lies in their union.
	f := func(x int16) bool {
		a := Interval{-100, 200}
		b := Interval{150, 300}
		d := int(x)
		return (!a.Contains(d) || !b.Contains(d) || a.Overlaps(b)) &&
			a.Union(b).Contains(d) == (a.Contains(d) || b.Contains(d))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFactInfoDefaults(t *testing.T) {
	st := NewStore()
	id := st.Add(rdf.T("a", "p", "b"))
	info, ok := st.Info(id)
	if !ok {
		t.Fatal("Info should resolve")
	}
	if info.Confidence != 1 || info.Time != Always {
		t.Errorf("default info = %+v", info)
	}
}

func TestSetInfo(t *testing.T) {
	st := NewStore()
	id := st.Add(rdf.T("a", "p", "b"))
	in := FactInfo{Confidence: 0.75, Source: "patterns:art42", Time: Interval{100, 200}}
	if !st.SetInfo(id, in) {
		t.Fatal("SetInfo should succeed")
	}
	got, _ := st.Info(id)
	if got != in {
		t.Errorf("Info = %+v, want %+v", got, in)
	}
	if st.SetInfo(FactID(999), in) {
		t.Error("SetInfo on bad id should fail")
	}
	// Zero interval is normalized to Always.
	st.SetInfo(id, FactInfo{Confidence: 0.5})
	got, _ = st.Info(id)
	if got.Time != Always {
		t.Errorf("zero interval should normalize to Always, got %v", got.Time)
	}
}
