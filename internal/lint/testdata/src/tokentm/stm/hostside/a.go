// Package hostside is a lint fixture pinning the exempt scope: host-side
// packages (the stm subsystem, the harness, the commands) may leave an enum
// switch partial, so the check does not flag this package, though the
// sibling fixture under internal/sim flags the same construct.
package hostside

type phase int

const (
	idle phase = iota
	busy
	done
)

func partialSwitchIsFine(p phase) string {
	switch p {
	case idle:
		return "idle"
	case busy:
		return "busy"
	}
	return ""
}
