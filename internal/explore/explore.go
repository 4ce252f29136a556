package explore

import (
	"sort"

	"tokentm/internal/core"
	"tokentm/internal/sim"
)

// Budget bounds an exploration. A sweep records it in its JSON so a diff
// against a checked-in document compares like with like.
type Budget struct {
	// MaxSchedules caps executed schedules (pruned re-executions
	// included); hitting it leaves Complete=false.
	MaxSchedules int `json:"max_schedules"`
	// MaxSteps is the per-schedule livelock bound (DecRun decisions).
	MaxSteps int `json:"max_steps"`
	// BranchDepth bounds where the exploration introduces nondeterminism:
	// decisions past this index follow the default min-time schedule.
	// Decision trees of the timed machine are infinite in depth — an
	// adversary can stretch backoff/retry loops forever, and every retry
	// advances a clock, minting a fresh state — so exhaustive enumeration
	// is over the schedules that branch within this prefix (0 = unbounded,
	// for programs known to converge).
	BranchDepth int `json:"branch_depth"`
	// Preempts / Bounces are per-schedule adversary budgets.
	Preempts int `json:"preempts"`
	Bounces  int `json:"bounces"`
	// Seed drives machine backoff jitter.
	Seed int64 `json:"seed"`
}

// DefaultBudget is the CI exploration budget.
func DefaultBudget() Budget {
	return Budget{MaxSchedules: 30000, MaxSteps: 4000, BranchDepth: 12, Preempts: 1, Bounces: 1}
}

// Options parameterizes an exploration.
type Options struct {
	Budget
	Variant  string
	Mutation core.Mutation
	// SleepSets enables the commuting-siblings pruning rule.
	SleepSets bool
	// StopOnViolation stops at the first counterexample (mutation smoke).
	StopOnViolation bool
}

// DefaultOptions explores variant within budget b with sleep-set pruning,
// as every sweep does.
func DefaultOptions(variant string, b Budget) Options {
	return Options{Budget: b, Variant: variant, SleepSets: true}
}

// Result summarizes one program × variant exploration.
type Result struct {
	Program  string `json:"program"`
	Variant  string `json:"variant"`
	Mutation string `json:"mutation"`
	// Schedules counts full program executions, including ones abandoned
	// at a pruned decision point.
	Schedules int `json:"schedules"`
	// Steps totals DecRun decisions across all executions.
	Steps uint64 `json:"steps"`
	// DistinctStates counts distinct (fingerprint, budgets) decision
	// points seen.
	DistinctStates int `json:"distinct_states"`
	// PrunedVisited counts executions abandoned at an already-seen state;
	// PrunedSleep counts sibling decisions skipped as commuting.
	PrunedVisited int `json:"pruned_visited"`
	PrunedSleep   int `json:"pruned_sleep"`
	// Complete reports full enumeration.
	Complete bool `json:"complete"`
	// MaxDepth is the longest schedule executed (decision count).
	MaxDepth int `json:"max_depth"`
	// Commits / Aborts / Evictions total over completed executions.
	Commits   int    `json:"commits"`
	Aborts    int    `json:"aborts"`
	Evictions uint64 `json:"evictions"`
	// TotalViolations counts violating executions; Violations keeps the
	// first counterexample per distinct kind+message.
	TotalViolations int         `json:"total_violations"`
	Violations      []Violation `json:"violations"`
}

// maxViolations caps distinct counterexamples kept per Result.
const maxViolations = 8

// stateKey identifies a decision point for pruning: two points with equal
// machine fingerprints but different remaining adversary budgets or branch
// allowance still have different futures, so both are part of the key.
type stateKey struct {
	fp       uint64
	preempts int
	bounces  int
	branch   int // remaining branching decisions (BranchDepth - index)
}

// Explore runs the configured exploration of prog and returns its summary.
func Explore(prog *Program, opts Options) *Result {
	res := &Result{
		Program:  prog.Name,
		Variant:  opts.Variant,
		Mutation: opts.Mutation.String(),
	}
	exploreDFS(prog, opts, res)
	sortViolations(res.Violations)
	return res
}

// exploreDFS enumerates the decision tree depth-first. Each iteration fully
// re-executes the program (stateless model checking): the recorded decision
// prefix on the stack is forced, then the first fresh decision point either
// prunes (state already seen) or pushes a new frame whose alternatives are
// explored across subsequent iterations.
func exploreDFS(prog *Program, opts Options, res *Result) {
	type node struct {
		alts []Decision
		next int
	}
	var stack []node
	seen := make(map[stateKey]struct{})
	budgetHit := false

	for {
		if res.Schedules >= opts.MaxSchedules {
			budgetHit = true
			break
		}
		res.Schedules++
		dec := 0
		forced := len(stack)
		rr := runSchedule(prog, opts.Variant, opts.Mutation, runOpts{
			seed:      opts.Seed,
			maxSteps:  opts.MaxSteps,
			preempts:  opts.Preempts,
			bounces:   opts.Bounces,
			checkStep: true,
		}, func(m *sim.Machine, tok *core.TokenTM, choices []sim.CoreChoice, def int, st *runState) (Decision, bool) {
			i := dec
			dec++
			if i < forced {
				// Replay the recorded prefix; re-execution is
				// deterministic, so the same decision points recur.
				n := &stack[i]
				return n.alts[n.next], true
			}
			branchLeft := 0
			if opts.BranchDepth > 0 {
				branchLeft = opts.BranchDepth - i
				if branchLeft <= 0 {
					// Past the branching prefix: extend with the
					// default schedule, introducing no new frames.
					return Decision{Kind: DecRun, Core: def}, true
				}
			}
			key := stateKey{fp: m.Fingerprint(), preempts: st.PreemptsLeft, bounces: st.BouncesLeft, branch: branchLeft}
			if _, dup := seen[key]; dup {
				res.PrunedVisited++
				return Decision{}, false
			}
			seen[key] = struct{}{}
			alts := enumerate(m, tok, choices, def, st)
			stack = append(stack, node{alts: alts})
			return alts[0], true
		})
		accumulate(res, &rr)
		if len(rr.schedule) > res.MaxDepth {
			res.MaxDepth = len(rr.schedule)
		}
		if rr.violation != nil && opts.StopOnViolation {
			break
		}

		// Backtrack: advance the deepest frame that still has an untried
		// alternative, discarding commuting siblings if enabled.
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			advanced := false
			for top.next+1 < len(top.alts) {
				top.next++
				if opts.SleepSets && commutesWithTried(prog, top.alts, top.next) {
					res.PrunedSleep++
					continue
				}
				advanced = true
				break
			}
			if advanced {
				break
			}
			stack = stack[:len(stack)-1]
		}
		if len(stack) == 0 {
			res.Complete = true
			break
		}
	}
	if budgetHit {
		res.Complete = false
	}
	res.DistinctStates = len(seen)
}

// accumulate folds one execution's outcome into the summary.
func accumulate(res *Result, rr *runResult) {
	res.Steps += uint64(rr.steps)
	res.Commits += len(rr.commits)
	res.Aborts += rr.aborts
	res.Evictions += rr.evictions
	if rr.violation == nil {
		return
	}
	res.TotalViolations++
	for _, v := range res.Violations {
		if v.Kind == rr.violation.Kind && v.Message == rr.violation.Message {
			return
		}
	}
	if len(res.Violations) < maxViolations {
		res.Violations = append(res.Violations, *rr.violation)
	}
}

// enumerate lists the decisions available at a decision point, default
// schedule first: the min-time core's run, the other runnable cores in core
// order, then adversary preemptions and the page bounce under budget.
func enumerate(m *sim.Machine, tok *core.TokenTM, choices []sim.CoreChoice, def int, st *runState) []Decision {
	alts := make([]Decision, 0, 2*len(choices)+1)
	alts = append(alts, Decision{Kind: DecRun, Core: def})
	for _, c := range choices {
		if c.Core != def {
			alts = append(alts, Decision{Kind: DecRun, Core: c.Core})
		}
	}
	if st.PreemptsLeft > 0 {
		for _, c := range choices {
			if m.CanPreempt(c.Core) {
				alts = append(alts, Decision{Kind: DecPreempt, Core: c.Core})
			}
		}
	}
	if st.BouncesLeft > 0 && tok != nil {
		alts = append(alts, Decision{Kind: DecBounce})
	}
	return alts
}

// commutesWithTried reports whether alts[j] is a run decision that commutes
// with every earlier (already-explored) sibling, so exploring it would only
// revisit reordered interleavings of independent steps. Soundness rests on
// static footprints: a core's footprint is the union of blocks its pinned
// threads ever touch, so two cores with disjoint footprints can never
// conflict, stall, or draw backoff randomness against each other, and a step
// on one cannot change what a step on the other does. Adversary siblings
// (preempt/bounce) never commute — they mutate scheduler or metastate
// structures that any run can observe.
func commutesWithTried(prog *Program, alts []Decision, j int) bool {
	if alts[j].Kind != DecRun {
		return false
	}
	for i := 0; i < j; i++ {
		if alts[i].Kind != DecRun {
			return false
		}
		if !coresIndependent(prog, alts[i].Core, alts[j].Core) {
			return false
		}
	}
	return true
}

// coresIndependent reports disjoint static footprints for the two cores and
// no third core sharing blocks with both, so the order of one step on each
// cannot be observed by anything.
func coresIndependent(prog *Program, a, b int) bool {
	fa, fb := coreFootprint(prog, a), coreFootprint(prog, b)
	if fa&fb != 0 {
		return false
	}
	for c := 0; c < prog.Cores; c++ {
		if c == a || c == b {
			continue
		}
		fc := coreFootprint(prog, c)
		if fa&fc != 0 && fb&fc != 0 {
			return false
		}
	}
	return true
}

// coreFootprint is the bitset of program blocks the core's pinned threads
// (thread i runs on core i % Cores) ever access. Programs fit one page, so
// block indices fit a word.
func coreFootprint(prog *Program, c int) uint64 {
	var fp uint64
	for i, tp := range prog.Threads {
		if i%prog.Cores != c {
			continue
		}
		for _, txn := range tp.Txns {
			for _, op := range txn {
				if op.Kind == OpLoad || op.Kind == OpIncr {
					fp |= 1 << uint(op.Block)
				}
			}
		}
	}
	return fp
}

// sortViolations orders a result's counterexamples deterministically.
func sortViolations(vs []Violation) {
	sort.Slice(vs, func(i, j int) bool {
		if vs[i].Kind != vs[j].Kind {
			return vs[i].Kind < vs[j].Kind
		}
		return vs[i].Message < vs[j].Message
	})
}
