// Package hostside is a lint fixture pinning the exempt scope: host-side
// packages (the stm subsystem, the harness, the commands) may leave an enum
// switch partial and allocate in unannotated code, so neither analyzer flags
// this package, though the sibling fixtures under internal/sim flag the same
// constructs.
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

// unannotated host-side code allocates freely; allocfree only ever checks
// //tokentm:allocfree functions, which this package does not declare.
func allocationIsFine(n int) []byte {
	return make([]byte, n)
}
