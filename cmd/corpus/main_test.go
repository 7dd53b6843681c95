package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// runCaptured runs the command with args and returns its exit code and
// standard output.
func runCaptured(t *testing.T, args ...string) (int, string) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan []byte)
	go func() {
		data, _ := io.ReadAll(r)
		out <- data
	}()
	code := run(args)
	w.Close()
	os.Stdout = stdout
	return code, string(<-out)
}

// TestCorpusRun: a small malware batch finds exactly its injected leaks,
// exits 0 and prints the rollup; an unknown profile and the retired
// -degrade flag are usage errors.
func TestCorpusRun(t *testing.T) {
	code, out := runCaptured(t, "-profile", "malware", "-n", "4")
	if code != exitOK {
		t.Fatalf("exit code %d, want %d\n%s", code, exitOK, out)
	}
	for _, want := range []string{`corpus "malware": 4 apps analyzed`, "leaks found:", "slowest passes"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary lacks %q:\n%s", want, out)
		}
	}
	if code, _ := runCaptured(t, "-profile", "nosuchprofile"); code != exitUsage {
		t.Errorf("unknown profile: exit code %d, want %d", code, exitUsage)
	}
	if code, _ := runCaptured(t, "-degrade"); code != exitUsage {
		t.Errorf("-degrade: exit code %d, want %d", code, exitUsage)
	}
}
