package tokentm

import (
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
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

// TestDocPathsExist: every repository path a reader is pointed at in
// backticks (or in a fenced code block) in README.md, DESIGN.md and
// EXPERIMENTS.md names a file or directory in the tree, so the prose
// cannot keep sending readers to a command or package that was deleted.
// A trailing Go identifier is trimmed: `internal/attr.Bucket` resolves as
// internal/attr. Likewise every `make <target>` run there (at the start of
// a span or line, or after && or ;) names a Makefile target, and every span
// that is a bare Test, Fuzz or Benchmark identifier names a function
// declared in a _test.go file.
func TestDocPathsExist(t *testing.T) {
	fence := regexp.MustCompile("(?ms)^```[^\n]*\n(.*?)^```")
	span := regexp.MustCompile("`([^`]+)`")
	path := regexp.MustCompile(`(?:^|[\s(=])(?:\./)?((?:cmd|internal|stm|examples)/[A-Za-z0-9_./-]*)`)
	makeRun := regexp.MustCompile(`(?m)(?:^|&&|;)\s*make\s+([A-Za-z0-9_-]+)`)
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([A-Za-z0-9_-]+):`).FindAllStringSubmatch(string(makefile), -1) {
		targets[m[1]] = true
	}
	testName := regexp.MustCompile(`^(?:Test|Fuzz|Benchmark)[A-Za-z0-9_]*$`)
	declared := testFuncs(t)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(raw)
		var code []string
		for _, m := range fence.FindAllStringSubmatch(text, -1) {
			code = append(code, m[1])
		}
		text = fence.ReplaceAllString(text, "")
		for _, m := range span.FindAllStringSubmatch(text, -1) {
			code = append(code, m[1])
			if testName.MatchString(m[1]) && !declared[m[1]] {
				t.Errorf("%s names %s, which no _test.go file declares", doc, m[1])
			}
		}
		n := 0
		for _, c := range code {
			for _, m := range path.FindAllStringSubmatch(c, -1) {
				n++
				if p, ok := resolveDocPath(m[1]); !ok {
					t.Errorf("%s names %s, which is not in the tree", doc, p)
				}
			}
			for _, m := range makeRun.FindAllStringSubmatch(c, -1) {
				if !targets[m[1]] {
					t.Errorf("%s runs make %s, which the Makefile does not define", doc, m[1])
				}
			}
		}
		if n == 0 {
			t.Errorf("%s: found no repository paths; has the markup changed?", doc)
		}
	}
}

// testFuncs returns the names of the Test, Fuzz and Benchmark functions
// declared in the module's _test.go files.
func testFuncs(t *testing.T) map[string]bool {
	t.Helper()
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)[A-Za-z0-9_]*)\(`)
	names := map[string]bool{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(p, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
			names[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// resolveDocPath cleans a path as written in the docs ("stm/...",
// "internal/sim/", "internal/attr.Bucket") and reports whether it names a
// file or directory.
func resolveDocPath(p string) (string, bool) {
	p = strings.TrimRight(p, "/.")
	if _, err := os.Stat(p); err == nil {
		return p, true
	}
	dir, last := "", p
	if i := strings.LastIndex(p, "/"); i >= 0 {
		dir, last = p[:i+1], p[i+1:]
	}
	if i := strings.Index(last, "."); i > 0 {
		if _, err := os.Stat(dir + last[:i]); err == nil {
			return p, true
		}
	}
	return p, false
}
