package core

// Mutation selects a deliberately broken protocol rule for the schedule
// explorer's smoke test: a checker that cannot detect these seeded bugs has
// lost its teeth, and `make verify` fails. Mutations exist only for testing;
// production builds never set one.
type Mutation int

const (
	// MutNone is the correct protocol.
	MutNone Mutation = iota
	// MutNoFissionWriter breaks Table 3a's fission rule: a shared fill
	// hands the new copy zero metastate instead of replicating a writer's
	// (T,X). The bug is silent until the writer's own copy leaves the L1
	// (e.g. a page-out) and the writer re-fetches the block — the refill
	// then lets the writer acquire a reader token it already owns as
	// writer, which the bookkeeping check reports as a writer coexisting
	// with reader tokens.
	MutNoFissionWriter
	// MutSkipLogCredit breaks double-entry bookkeeping directly: a read
	// acquire debits the metastate and updates the transaction's token
	// index but skips the log credit, so the index and log disagree at the
	// very next bookkeeping check.
	MutSkipLogCredit
)

// String names the mutation (used in explore reports and CLI flags).
func (m Mutation) String() string {
	switch m {
	case MutNone:
		return "none"
	case MutNoFissionWriter:
		return "no-fission-writer"
	case MutSkipLogCredit:
		return "skip-log-credit"
	default:
		panic("core: unknown mutation")
	}
}

// MutationByName resolves a CLI name to a mutation (false for unknown).
func MutationByName(name string) (Mutation, bool) {
	for _, m := range []Mutation{MutNone, MutNoFissionWriter, MutSkipLogCredit} {
		if m.String() == name {
			return m, true
		}
	}
	return MutNone, false
}

// WithMutation seeds a protocol bug (see Mutation). Test-only.
func WithMutation(m Mutation) Option {
	return func(t *TokenTM) { t.mutation = m }
}
