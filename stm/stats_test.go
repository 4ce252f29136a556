package stm

import (
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"unicode"
)

// snakeCase turns a Go field name (ConflictWriter) into its wire name
// (conflict_writer).
func snakeCase(name string) string {
	var b strings.Builder
	for i, r := range name {
		if unicode.IsUpper(r) && i > 0 {
			b.WriteByte('_')
		}
		b.WriteRune(unicode.ToLower(r))
	}
	return b.String()
}

// TestStatFieldsCoverage pins the statFields table to the two structs it
// describes: row i must address field i of Stats and field i of counters,
// under that field's snake-cased name, and the table must have exactly one
// row per field — so a counter added to either struct without its row (or
// a row wired to the wrong field) fails here instead of silently dropping
// out of TM.Stats and INFO.
func TestStatFieldsCoverage(t *testing.T) {
	st, ct := reflect.TypeOf(Stats{}), reflect.TypeOf(counters{})
	if st.NumField() != len(statFields) || ct.NumField() != len(statFields) {
		t.Fatalf("statFields has %d rows; Stats has %d fields, counters %d",
			len(statFields), st.NumField(), ct.NumField())
	}
	for i, f := range statFields {
		var s Stats
		var c counters
		*f.stat(&s) = 1
		f.counter(&c).Store(1)
		sv, cv := reflect.ValueOf(s), reflect.ValueOf(&c).Elem()
		for j := 0; j < st.NumField(); j++ {
			want := uint64(0)
			if j == i {
				want = 1
			}
			if got := sv.Field(j).Uint(); got != want {
				t.Errorf("row %d (%s): Stats.%s = %d, want %d", i, f.name, st.Field(j).Name, got, want)
			}
			if got := cv.Field(j).Addr().Interface().(*atomic.Uint64).Load(); got != want {
				t.Errorf("row %d (%s): counters.%s = %d, want %d", i, f.name, ct.Field(j).Name, got, want)
			}
		}
		if st.Field(i).Name != ct.Field(i).Name || snakeCase(st.Field(i).Name) != f.name {
			t.Errorf("row %d is named %q; Stats field is %s, counters field is %s",
				i, f.name, st.Field(i).Name, ct.Field(i).Name)
		}
	}
}

// TestStatsEach: Each reports every field once, in table order, under its
// wire name.
func TestStatsEach(t *testing.T) {
	var a Stats
	for i, f := range statFields {
		*f.stat(&a) = uint64(101 * (i + 1))
	}
	i := 0
	a.Each(func(name string, v uint64) {
		if name != statFields[i].name || v != uint64(101*(i+1)) {
			t.Errorf("Each #%d = (%s, %d), want (%s, %d)", i, name, v, statFields[i].name, 101*(i+1))
		}
		i++
	})
	if i != len(statFields) {
		t.Errorf("Each visited %d fields, want %d", i, len(statFields))
	}
}
