package main

import (
	"path/filepath"
	"strings"
	"testing"

	"tokentm/stm/loadgen"
)

// tinyGrid is the CI smoke grid shrunk further: every mix on all five
// targets at workers 1 and 2.
func tinyGrid(t *testing.T) *report {
	t.Helper()
	rep, err := runGrid(reportConfig{
		Ops:      1500,
		Reps:     2,
		Keyspace: 1024,
		Capacity: 4096,
		Seed:     3,
		ZipfS:    1.1,
		Shards:   4,
		Workers:  []int{1, 2},
		Targets:  loadgen.Targets,
		Mixes:    strings.Split(mixNames(), ","),
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestGridRoundTrip: a fresh grid covers mixes x workers x targets, is
// written to disk, and passes -check's checker from the file.
func TestGridRoundTrip(t *testing.T) {
	rep := tinyGrid(t)
	if want := len(loadgen.Mixes) * 2 * len(loadgen.Targets); len(rep.Results) != want {
		t.Fatalf("%d results, want %d", len(rep.Results), want)
	}
	if rep.Host.GOMAXPROCS < 1 || rep.Host.NumCPU < 1 {
		t.Errorf("host block not recorded: %+v", rep.Host)
	}
	dir := t.TempDir()
	jsonPath, textPath := filepath.Join(dir, "r.json"), filepath.Join(dir, "r.txt")
	if err := rep.write(jsonPath, textPath); err != nil {
		t.Fatal(err)
	}
	if err := checkFile(jsonPath); err != nil {
		t.Fatalf("fresh report fails its own check: %v", err)
	}
	if n := strings.Count(benchstatText(rep), "\nBenchmarkKV/mix="); n != len(rep.Results) {
		t.Errorf("benchstat text has %d cell lines, want %d", n, len(rep.Results))
	}
	if err := checkFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
	if err := checkFile(textPath); err == nil {
		t.Error("non-JSON file accepted")
	}
}

// TestCheckRejectsCorruption seeds one corruption at a time into a valid
// report and requires the checker to name it.
func TestCheckRejectsCorruption(t *testing.T) {
	good := tinyGrid(t)
	// cell returns the index of the first result of a target at a worker count.
	cell := func(rep *report, target string, workers int) int {
		for i, r := range rep.Results {
			if r.Target == target && r.Workers == workers {
				return i
			}
		}
		t.Fatalf("no %s/w=%d cell", target, workers)
		return -1
	}
	corruptions := []struct {
		name, want string
		mutate     func(rep *report)
	}{
		{"dropped cell", "grid needs", func(rep *report) { rep.Results = rep.Results[1:] }},
		{"duplicated cell", "duplicate cell", func(rep *report) { rep.Results[1] = rep.Results[0] }},
		{"foreign cell", "outside config grid", func(rep *report) { rep.Results[0].Workers = 3 }},
		{"flipped checksum", "disagree across targets", func(rep *report) { rep.Results[cell(rep, "tl2-occ", 1)].Checksum ^= 1 }},
		{"flipped read_fold", "disagree across targets", func(rep *report) { rep.Results[cell(rep, "net", 1)].ReadFold ^= 1 }},
		{"in-process wire retries", "wire retries", func(rep *report) { rep.Results[cell(rep, "sharded", 2)].WireRetries = 1 }},
		{"shards not a power of two", "power of two", func(rep *report) { rep.Config.Shards = 3 }},
		{"unknown target", "unknown target", func(rep *report) { rep.Config.Targets = append(rep.Config.Targets[:4:4], "udp") }},
		{"short commits", "commits for", func(rep *report) { rep.Results[0].Commits = 1 }},
		{"ops mismatch", "config says", func(rep *report) { rep.Results[0].Ops++ }},
		{"unknown schema", "want", func(rep *report) { rep.Schema = "tokentm-stm/v3" }},
	}
	for _, old := range supersededSchemas {
		corruptions = append(corruptions, struct {
			name, want string
			mutate     func(rep *report)
		}{old, "regenerate with `make stmbench`", func(rep *report) { rep.Schema = old }})
	}
	for _, c := range corruptions {
		bad := *good
		bad.Results = append([]loadgen.Result(nil), good.Results...)
		c.mutate(&bad)
		if err := checkReport(&bad); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: checker said %v, want an error mentioning %q", c.name, err, c.want)
		}
	}
	// Flipping a multi-worker checksum is NOT an error: those cells are
	// schedule-dependent, and the checker must not pretend otherwise.
	ok := *good
	ok.Results = append([]loadgen.Result(nil), good.Results...)
	ok.Results[cell(&ok, "net", 2)].Checksum ^= 1
	if err := checkReport(&ok); err != nil {
		t.Errorf("multi-worker checksum treated as deterministic: %v", err)
	}
}

// TestGridErrors: bad sweep parameters surface as errors from runGrid with
// the failing cell named, never as a panic in a worker goroutine.
func TestGridErrors(t *testing.T) {
	base := reportConfig{Ops: 100, Keyspace: 64, Capacity: 256, Seed: 1, ZipfS: 1.1, Shards: 4,
		Workers: []int{1}, Targets: []string{"stm", "net"}, Mixes: []string{"read-heavy"}}
	for name, mutate := range map[string]func(*reportConfig){
		"zipf":   func(c *reportConfig) { c.ZipfS = 1.0 },
		"mix":    func(c *reportConfig) { c.Mixes = []string{"nope"} },
		"target": func(c *reportConfig) { c.Targets = []string{"nope"} },
		"shards": func(c *reportConfig) { c.Shards = 6 },
	} {
		cfg := base
		mutate(&cfg)
		if _, err := runGrid(cfg); err == nil {
			t.Errorf("bad %s accepted", name)
		}
	}
	if _, err := parseInts("1,0"); err == nil {
		t.Error("worker count 0 accepted")
	}
}
