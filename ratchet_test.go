package spthreads_test

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"spthreads/pthread"
)

// Code-size ratchet. The ceilings are the current values: a change that
// deletes code lowers them, and one that must raise a ceiling says why
// in CHANGES.md.
const (
	maxNonTestLines = 15716
	maxConfigFields = 11
)

// TestCodeRatchet counts the module's non-test Go lines outside
// benchmark/ (a module of its own, held by BENCHMARK.json), as wc -l
// would, and the fields of pthread.Config.
func TestCodeRatchet(t *testing.T) {
	lines := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && (path == "benchmark" || path != "." && strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		src, err := os.ReadFile(path)
		lines += bytes.Count(src, []byte("\n"))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	fields := reflect.TypeOf(pthread.Config{}).NumField()
	t.Logf("%d non-test lines, %d Config fields", lines, fields)
	if lines > maxNonTestLines {
		t.Errorf("%d non-test Go lines outside benchmark/, ceiling %d", lines, maxNonTestLines)
	}
	if fields > maxConfigFields {
		t.Errorf("pthread.Config has %d fields, ceiling %d", fields, maxConfigFields)
	}
}
