// Package exhaustive is a lint fixture for the exhaustive check: enum
// switches must cover every constant or fail loudly in default.
package exhaustive

type state int

const (
	sIdle state = iota
	sRun
	sDone
)

// covered handles every constant: no diagnostic.
func covered(s state) string {
	switch s {
	case sIdle:
		return "idle"
	case sRun:
		return "run"
	case sDone:
		return "done"
	}
	return "?"
}

func missingCase(s state) int {
	n := 0
	switch s { // want `exhaustive: switch over exhaustive\.state misses sDone`
	case sIdle:
		n = 1
	case sRun:
		n = 2
	}
	return n
}

// loudDefault is non-exhaustive but the default panics: allowed.
func loudDefault(s state) int {
	switch s {
	case sIdle:
		return 0
	default:
		panic("unhandled state")
	}
}

// returningDefault is non-exhaustive but the default returns: allowed.
func returningDefault(s state) int {
	switch s {
	case sIdle:
		return 0
	default:
		return -1
	}
}

func quietDefault(s state) int {
	n := 0
	switch s {
	case sIdle:
		n = 1
	default: // want `exhaustive: default clause of non-exhaustive switch over exhaustive\.state must panic or return`
		n = 2
	}
	return n
}

// plainInt switches over a bare int: not an enum, not checked.
func plainInt(n int) int {
	switch n {
	case 0:
		return 1
	}
	return 0
}
