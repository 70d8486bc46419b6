// Package temporal implements the temporal-knowledge component of the
// tutorial (§3): calendar arithmetic, extraction of temporal expressions
// from text, normalization to day numbers, and inference of the validity
// intervals ("timespans during which certain facts hold") of facts.
package temporal

import (
	"fmt"

	"kbharvest/internal/core"
)

// Date is a calendar date. Month and Day may be zero to express reduced
// precision ("2007" or "January 2007").
type Date struct {
	Year  int
	Month int // 1..12, or 0 if unknown
	Day   int // 1..31, or 0 if unknown
}

// civilToDays converts a full y/m/d to days since 1970-01-01 using the
// standard proleptic-Gregorian algorithm, then shifts to the 1900 epoch.
func civilToDays(y, m, d int) int {
	yy := y
	if m <= 2 {
		yy--
	}
	era := yy / 400
	if yy < 0 && yy%400 != 0 {
		era--
	}
	yoe := yy - era*400
	mp := (m + 9) % 12
	doy := (153*mp+2)/5 + d - 1
	doe := yoe*365 + yoe/4 - yoe/100 + doy
	days1970 := era*146097 + doe - 719468
	return days1970 + 25567 // 1900-01-01 is day -25567 from 1970
}

// daysToCivil is the inverse of civilToDays.
func daysToCivil(day int) (y, m, d int) {
	z := day - 25567 + 719468
	era := z / 146097
	if z < 0 && z%146097 != 0 {
		era--
	}
	doe := z - era*146097
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365
	yy := yoe + era*400
	doy := doe - (365*yoe + yoe/4 - yoe/100)
	mp := (5*doy + 2) / 153
	d = doy - (153*mp+2)/5 + 1
	m = mp + 3
	if mp >= 10 {
		m = mp - 9
	}
	if m <= 2 {
		yy++
	}
	return yy, m, d
}

// DayNum converts the date to a day number since 1900-01-01 (day 0).
// Missing month/day resolve to the earliest covered day (January / the
// 1st).
func (d Date) DayNum() int {
	m, dd := d.Month, d.Day
	if m == 0 {
		m = 1
	}
	if dd == 0 {
		dd = 1
	}
	return civilToDays(d.Year, m, dd)
}

// Interval converts the date to the interval of days it covers: a full
// date covers one day, "January 2007" covers the month, "2007" the year.
func (d Date) Interval() core.Interval {
	switch {
	case d.Month == 0:
		return core.Interval{
			Begin: civilToDays(d.Year, 1, 1),
			End:   civilToDays(d.Year+1, 1, 1) - 1,
		}
	case d.Day == 0:
		ny, nm := d.Year, d.Month+1
		if nm == 13 {
			ny, nm = ny+1, 1
		}
		return core.Interval{
			Begin: civilToDays(d.Year, d.Month, 1),
			End:   civilToDays(ny, nm, 1) - 1,
		}
	default:
		day := d.DayNum()
		return core.Interval{Begin: day, End: day}
	}
}

// FromDay converts a day number back to a full calendar date.
func FromDay(day int) Date {
	y, m, d := daysToCivil(day)
	return Date{Year: y, Month: m, Day: d}
}

// String renders ISO-style: "2007-01-09", "2007-01", or "2007".
func (d Date) String() string {
	switch {
	case d.Month == 0:
		return fmt.Sprintf("%04d", d.Year)
	case d.Day == 0:
		return fmt.Sprintf("%04d-%02d", d.Year, d.Month)
	default:
		return fmt.Sprintf("%04d-%02d-%02d", d.Year, d.Month, d.Day)
	}
}

// MonthNames maps English month names (lowercase) to month numbers.
var MonthNames = map[string]int{
	"january": 1, "february": 2, "march": 3, "april": 4, "may": 5,
	"june": 6, "july": 7, "august": 8, "september": 9, "october": 10,
	"november": 11, "december": 12,
}

// monthName returns the English name of month m (1-based).
func monthName(m int) string {
	names := []string{"January", "February", "March", "April", "May",
		"June", "July", "August", "September", "October", "November",
		"December"}
	if m < 1 || m > 12 {
		return "Undecember"
	}
	return names[m-1]
}

// Format renders the date in natural English ("January 9, 2007"), matching
// the style the synthetic corpus uses.
func (d Date) Format() string {
	switch {
	case d.Month == 0:
		return fmt.Sprintf("%d", d.Year)
	case d.Day == 0:
		return fmt.Sprintf("%s %d", monthName(d.Month), d.Year)
	default:
		return fmt.Sprintf("%s %d, %d", monthName(d.Month), d.Day, d.Year)
	}
}

// DaysInMonth returns the number of days of month m in year y.
func DaysInMonth(y, m int) int {
	switch m {
	case 1, 3, 5, 7, 8, 10, 12:
		return 31
	case 4, 6, 9, 11:
		return 30
	case 2:
		if isLeap(y) {
			return 29
		}
		return 28
	}
	return 0
}

func isLeap(y int) bool {
	return y%4 == 0 && (y%100 != 0 || y%400 == 0)
}

// Valid reports whether the (possibly reduced-precision) date denotes a
// real calendar point.
func (d Date) Valid() bool {
	if d.Year < 1 || d.Year > 9999 {
		return false
	}
	if d.Month == 0 {
		return d.Day == 0
	}
	if d.Month < 1 || d.Month > 12 {
		return false
	}
	if d.Day == 0 {
		return true
	}
	return d.Day >= 1 && d.Day <= DaysInMonth(d.Year, d.Month)
}
