package harness

import (
	"encoding/json"
	"io"
)

// SweepSchema versions the JSON document WriteJSON emits.
const SweepSchema = "tokentm-harness/v1"

// SweepDoc is the machine-readable record of a sweep, written by
// cmd/experiments -json (BENCH_breakdown.json is one).
type SweepDoc struct {
	Schema string `json:"schema"`
	// CodeVersion is the CodeVersion() of the producing binary.
	CodeVersion string `json:"code_version"`
	// Jobs holds per-job results in job (submission) order.
	Jobs []Result `json:"jobs"`
}

// WriteJSON emits results as an indented SweepDoc. The host-dependent
// Result field (WallNS) is cleared, so the emitted bytes depend only on job
// parameters and code, not on the host or the parallelism level — sweeps at
// -parallel=1 and -parallel=N emit identical documents.
func WriteJSON(w io.Writer, version string, results []Result) error {
	doc := SweepDoc{Schema: SweepSchema, CodeVersion: version, Jobs: make([]Result, len(results))}
	copy(doc.Jobs, results)
	for i := range doc.Jobs {
		doc.Jobs[i].WallNS = 0
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
