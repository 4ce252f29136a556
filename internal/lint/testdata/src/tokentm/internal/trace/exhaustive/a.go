// Package exhaustive is a lint fixture for the exhaustive check in an
// ordered-output package: the trace decorator's switches over the protocol
// enums must cover every constant, as they must in the simulator.
package exhaustive

type outcome int

const (
	hit outcome = iota
	stall
	abortSelf
)

// record misses an arm: an outcome it does not name would go unrecorded.
func record(o outcome) int {
	n := 0
	switch o { // want `exhaustive: switch over exhaustive\.outcome misses abortSelf`
	case hit:
		n = 1
	case stall:
		n = 2
	}
	return n
}

// name covers every arm: no diagnostic.
func name(o outcome) string {
	switch o {
	case hit:
		return "hit"
	case stall:
		return "stall"
	case abortSelf:
		return "abort-self"
	}
	return "?"
}
