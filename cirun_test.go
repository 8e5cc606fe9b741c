package wanamcast

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// runFlag is a go test command's -run pattern, quoted or not.
var runFlag = regexp.MustCompile(`-run[ =]'?([^' ]+)'?`)

// testFunc is a declaration go test's -run selects from.
var testFunc = regexp.MustCompile(`(?m)^func ((Test|Fuzz|Example)\w*)\(`)

// TestCIRunNamesExist fails on a name of a -run alternation in ci.yml that
// matches no test in the packages its go test command runs: such a name runs
// nothing, and the step passes. A command that runs benchmarks or a fuzz
// target selects no test on purpose.
func TestCIRunNamesExist(t *testing.T) {
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	for n, line := range strings.Split(string(ci), "\n") {
		cmd, ok := strings.CutPrefix(strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), "run:")), "go test ")
		m := runFlag.FindStringSubmatch(cmd)
		if !ok || m == nil || strings.Contains(cmd, "-bench") || strings.Contains(cmd, "-fuzz") {
			continue
		}
		var pkgs, names []string
		for _, arg := range strings.Fields(cmd) {
			if arg == "." || strings.HasPrefix(arg, "./") {
				pkgs, names = append(pkgs, arg), append(names, testNames(t, arg)...)
			}
		}
		for _, alt := range strings.Split(m[1], "|") {
			if re := regexp.MustCompile(strings.Split(alt, "/")[0]); !slices.ContainsFunc(names, re.MatchString) {
				t.Errorf("ci.yml:%d: -run name %q matches no test in %v", n+1, alt, pkgs)
			}
		}
	}
}

// testNames lists the tests declared in package dir, and with a "/..."
// suffix in the packages under it too (bench/, a module of its own, aside).
func testNames(t *testing.T, pkg string) []string {
	dir, all := strings.CutSuffix(pkg, "/...")
	dir = filepath.Clean(dir)
	var names []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != dir && (!all || path == "bench" || d.Name() == ".git" || d.Name() == "testdata"):
			return filepath.SkipDir
		case !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range testFunc.FindAllSubmatch(src, -1) {
			names = append(names, string(m[1]))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}
