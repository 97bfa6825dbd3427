package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestExitCodes: a bad flag value, a missing or unknown experiment id is
// a usage error (2) and runs nothing; a good invocation exits 0.
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		code   int
		stderr string
	}{
		{nil, 2, "usage:"},
		{[]string{"-scale", "papr", "fig1"}, 2, `bad -scale "papr"`},
		{[]string{"-scale", "", "fig1"}, 2, `bad -scale ""`},
		{[]string{"-scale", "small", "-procs", "2,x", "fig1"}, 2, `bad -procs entry "x"`},
		{[]string{"-scale", "small", "nope"}, 2, `unknown experiment "nope"`},
		{[]string{"-json", "fig1"}, 2, "flag provided but not defined: -json"},
		{[]string{"list"}, 0, ""},
		{[]string{"-scale", "small", "-procs", "2", "fig1"}, 0, ""},
	} {
		var out, errb bytes.Buffer
		code := run(tc.args, &out, &errb)
		if code != tc.code {
			t.Errorf("run(%q) = %d, want %d\nstderr: %s", tc.args, code, tc.code, errb.String())
		}
		if !strings.Contains(errb.String(), tc.stderr) {
			t.Errorf("run(%q) stderr missing %q:\n%s", tc.args, tc.stderr, errb.String())
		}
		if code == 2 && out.Len() > 0 {
			t.Errorf("run(%q) exited 2 but printed:\n%s", tc.args, out.String())
		}
		if tc.code == 0 && !strings.Contains(out.String(), "fig1") {
			t.Errorf("run(%q) output missing fig1:\n%s", tc.args, out.String())
		}
	}
}
