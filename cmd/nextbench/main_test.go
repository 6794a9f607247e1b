package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs main itself when the test binary is started with
// NEXTBENCH_ARGS set, so a test can check the command's exit status.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("NEXTBENCH_ARGS"); ok {
		os.Args = append([]string{"nextbench"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestCheckFig(t *testing.T) {
	for _, fig := range figures {
		if err := checkFig(fig); err != nil {
			t.Errorf("checkFig(%q) = %v", fig, err)
		}
	}
	for _, fig := range []string{"9", "", "7,8", "ALL"} {
		if err := checkFig(fig); err == nil {
			t.Errorf("checkFig(%q) accepted an unknown figure", fig)
		}
	}
}

// TestUnknownFigExits2 runs nextbench -fig 9: it must print nothing on
// stdout, name the valid figures on stderr and exit 2.
func TestUnknownFigExits2(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-test.run=NONE")
	cmd.Env = append(os.Environ(), "NEXTBENCH_ARGS=-fig 9 -seed 42")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("nextbench -fig 9: err %v, want exit status 2", err)
	}
	if stdout.Len() != 0 {
		t.Errorf("nextbench -fig 9 printed %q on stdout", stdout.String())
	}
	if msg := stderr.String(); !strings.Contains(msg, `unknown figure "9"`) || !strings.Contains(msg, strings.Join(figures, ", ")) {
		t.Errorf("nextbench -fig 9 stderr %q does not name the valid figures", msg)
	}
}
