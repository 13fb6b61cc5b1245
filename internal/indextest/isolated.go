package indextest

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// isolatedEnv marks the child copy of a test binary that RunIsolated starts;
// its value is the name of the test the child runs.
const isolatedEnv = "WAZI_TEST_ISOLATED"

// RunIsolated runs body in a child copy of the test binary that runs only
// the calling top-level test, and fails t with the child's output if the
// child fails — including by dying of a signal. A test whose failure mode is
// a crash of the process (a fatal memory fault) reports it this way instead
// of taking the whole test run down.
func RunIsolated(t *testing.T, body func(t *testing.T)) {
	t.Helper()
	if os.Getenv(isolatedEnv) == t.Name() {
		body(t)
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^"+t.Name()+"$", "-test.v")
	cmd.Env = append(os.Environ(), isolatedEnv+"="+t.Name())
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("isolated run failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "--- PASS: "+t.Name()) {
		t.Fatalf("isolated run did not pass %s:\n%s", t.Name(), out)
	}
}
