package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckFixtures runs the gate on the small modules under testdata,
// each copied to a temporary directory with the case's allowlist.
func TestCheckFixtures(t *testing.T) {
	cases := []struct {
		name, fixture, allow string
		pass                 bool
		want                 string // a line of the output contains it
	}{
		{name: "unused exported function", fixture: "unused", want: "internal/a/a.go:7: exported function internal/a.Unused is used by no non-test file"},
		{name: "non-test import of oracle", fixture: "oracle", want: "internal/a/a.go:3: non-test import of internal/oracle"},
		{name: "interface methods", fixture: "iface", pass: true},
		{name: "used by bench module", fixture: "bench", pass: true},
		{name: "allowlisted", fixture: "allow", allow: "internal/a.Kept waits for its caller\n", pass: true},
		{name: "allowlist line without reason", fixture: "allow", allow: "# comment\n\ninternal/a.Kept\n", want: "ci/deadcheck_allow.txt:3: allowlisted internal/a.Kept gives no reason"},
		{name: "stale allowlist line", fixture: "allow", allow: "internal/a.Kept waits\ninternal/a.Gone was deleted\n", want: "ci/deadcheck_allow.txt:2: allowlisted internal/a.Gone is not an unused exported name"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", tc.fixture))); err != nil {
				t.Fatal(err)
			}
			if tc.allow != "" {
				if err := os.MkdirAll(filepath.Join(dir, "ci"), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, allowFile), []byte(tc.allow), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			var out strings.Builder
			ok, err := check(dir, &out)
			if err != nil {
				t.Fatal(err)
			}
			if ok != tc.pass {
				t.Fatalf("check passed = %v, want %v; output:\n%s", ok, tc.pass, out.String())
			}
			if tc.want != "" && !strings.Contains(out.String(), tc.want) {
				t.Fatalf("output lacks %q:\n%s", tc.want, out.String())
			}
		})
	}
}
