package temporal

import (
	"testing"
	"testing/quick"
)

func TestEpochIsDayZero(t *testing.T) {
	epoch := Date{Year: 1900, Month: 1, Day: 1}
	if got := epoch.DayNum(); got != 0 {
		t.Errorf("1900-01-01 is day %d, want 0", got)
	}
	if got := FromDay(0); got != epoch {
		t.Errorf("day 0 is %v, want %v", got, epoch)
	}
}

func TestKnownDates(t *testing.T) {
	cases := []struct {
		d    Date
		want int
	}{
		{Date{1900, 1, 2}, 1},
		{Date{1900, 2, 1}, 31},
		{Date{1901, 1, 1}, 365},
		{Date{1904, 3, 1}, 365*4 + 31 + 29}, // 1904 is a leap year
		{Date{2000, 1, 1}, 36524},
	}
	for _, c := range cases {
		if got := c.d.DayNum(); got != c.want {
			t.Errorf("%v.Day = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestRoundTripQuick(t *testing.T) {
	f := func(n uint32) bool {
		day := int(n % 100000) // ~273 years
		d := FromDay(day)
		return d.DayNum() == day && d.Valid() && d.Month != 0 && d.Day != 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestDayDefaultsMissingParts(t *testing.T) {
	if (Date{Year: 1950}).DayNum() != (Date{1950, 1, 1}).DayNum() {
		t.Error("year-only should resolve to Jan 1")
	}
	if (Date{Year: 1950, Month: 6}).DayNum() != (Date{1950, 6, 1}).DayNum() {
		t.Error("month without day should resolve to the 1st")
	}
}

func TestDateInterval(t *testing.T) {
	// Year precision covers the year.
	iv := Date{Year: 2000}.Interval()
	if iv.Days() != 366 { // 2000 is a leap year
		t.Errorf("year interval = %d days", iv.Days())
	}
	// Month precision covers the month.
	iv = Date{Year: 2001, Month: 2}.Interval()
	if iv.Days() != 28 {
		t.Errorf("feb 2001 = %d days", iv.Days())
	}
	// December rolls into the next year.
	iv = Date{Year: 2001, Month: 12}.Interval()
	if iv.Days() != 31 {
		t.Errorf("dec = %d days", iv.Days())
	}
	// Full date covers one day.
	iv = Date{2001, 5, 17}.Interval()
	if iv.Days() != 1 {
		t.Errorf("full date = %d days", iv.Days())
	}
}

func TestDateStringAndFormat(t *testing.T) {
	cases := []struct {
		d          Date
		str, human string
	}{
		{Date{2007, 1, 9}, "2007-01-09", "January 9, 2007"},
		{Date{2007, 1, 0}, "2007-01", "January 2007"},
		{Date{2007, 0, 0}, "2007", "2007"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.str {
			t.Errorf("String = %q, want %q", got, c.str)
		}
		if got := c.d.Format(); got != c.human {
			t.Errorf("Format = %q, want %q", got, c.human)
		}
	}
}

func TestDaysInMonth(t *testing.T) {
	if DaysInMonth(2000, 2) != 29 || DaysInMonth(1900, 2) != 28 || DaysInMonth(2004, 2) != 29 {
		t.Error("leap year rules wrong")
	}
	if DaysInMonth(2001, 4) != 30 || DaysInMonth(2001, 1) != 31 {
		t.Error("month lengths wrong")
	}
	if DaysInMonth(2001, 13) != 0 {
		t.Error("invalid month should yield 0")
	}
}

func TestDateValid(t *testing.T) {
	valid := []Date{{2000, 2, 29}, {1999, 12, 31}, {2000, 0, 0}, {2000, 5, 0}}
	invalid := []Date{{2001, 2, 29}, {2000, 13, 1}, {2000, 0, 5}, {0, 1, 1}, {2000, 4, 31}}
	for _, d := range valid {
		if !d.Valid() {
			t.Errorf("%v should be valid", d)
		}
	}
	for _, d := range invalid {
		if d.Valid() {
			t.Errorf("%v should be invalid", d)
		}
	}
}

func TestMonthNames(t *testing.T) {
	if MonthNames["january"] != 1 || MonthNames["december"] != 12 {
		t.Error("month name map wrong")
	}
	if monthName(1) != "January" || monthName(12) != "December" {
		t.Error("monthName wrong")
	}
	if monthName(0) == "January" {
		t.Error("monthName(0) should not be January")
	}
}
