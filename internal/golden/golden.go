// Package golden pins driver outputs to recorded hashes: each test
// renders its results with %+v, hashes them with SHA-256 and compares
// the hashes against a testdata file of "key hash" lines. On a
// mismatch the test log carries the full regenerated file, so an
// intended output change is re-pinned by pasting it into testdata.
package golden

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// Hash returns the SHA-256 of the %+v rendering of v. Callers must
// render pointers themselves: %+v prints a nested pointer's address.
func Hash(v any) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", v)))
	return hex.EncodeToString(sum[:])
}

// Check compares got (key → hash) against the pins in file. header is
// written as the regenerated file's comment lines.
func Check(t *testing.T, file, header string, got map[string]string) {
	t.Helper()
	pins := load(t, file)
	failed := false
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if want, ok := pins[k]; !ok {
			t.Errorf("%s: no golden pin", k)
			failed = true
		} else if want != got[k] {
			t.Errorf("%s: hash %s, pinned %s", k, got[k], want)
			failed = true
		}
	}
	for k := range pins {
		if _, ok := got[k]; !ok {
			t.Errorf("%s: pinned but not produced", k)
			failed = true
		}
	}
	if failed {
		var sb strings.Builder
		for _, line := range strings.Split(strings.TrimSpace(header), "\n") {
			fmt.Fprintf(&sb, "# %s\n", line)
		}
		for _, k := range keys {
			fmt.Fprintf(&sb, "%s %s\n", k, got[k])
		}
		t.Logf("regenerated %s:\n%s", file, sb.String())
	}
}

func load(t *testing.T, file string) map[string]string {
	t.Helper()
	f, err := os.Open(filepath.FromSlash(file))
	if err != nil {
		t.Fatalf("open golden pins: %v", err)
	}
	defer f.Close()
	pins := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed golden line %q", line)
		}
		pins[line[:i]] = line[i+1:]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return pins
}
