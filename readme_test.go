package tokentm

import (
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// TestReadmePackagesReachable: every package in README's "What is
// implemented" table is compiled into one of the commands, so the README
// cannot claim a mechanism that nothing the repository runs ever executes.
func TestReadmePackagesReachable(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "\n## What is implemented\n")
	if !ok {
		t.Fatal(`README.md has no "What is implemented" section`)
	}
	backticked := regexp.MustCompile("`([^`]+)`")
	pkgPath := regexp.MustCompile(`^[a-z][a-z0-9]*(/[a-z0-9-]+)*$`)
	var claimed []string
	inTable := false
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "|") {
			if inTable {
				break
			}
			continue
		}
		inTable = true
		cols := strings.Split(line, "|")
		if len(cols) < 4 {
			t.Fatalf("malformed table row %q", line)
		}
		for _, m := range backticked.FindAllStringSubmatch(cols[2], -1) {
			if pkgPath.MatchString(m[1]) {
				claimed = append(claimed, m[1])
			}
		}
	}
	if len(claimed) < 10 {
		t.Fatalf("found implausibly few packages in the table: %v", claimed)
	}

	cmd := exec.Command("go", "list", "-deps",
		"./cmd/experiments", "./cmd/tokentm-sim", "./cmd/tokentm-explore", "./cmd/tokentm-store")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	deps := map[string]bool{}
	for _, p := range strings.Fields(string(out)) {
		deps[p] = true
	}
	for _, p := range claimed {
		if !deps["tokentm/"+p] {
			t.Errorf("README lists %s, but no command imports it", p)
		}
	}
}
