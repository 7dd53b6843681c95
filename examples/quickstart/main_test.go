package main

import (
	"io"
	"os"
	"testing"
)

// TestStdoutGolden runs the example and compares what it prints with
// testdata/stdout.golden. Regenerate the golden after an intended output
// change with: go run . > testdata/stdout.golden
func TestStdoutGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/stdout.golden")
	if err != nil {
		t.Fatal(err)
	}
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
	main()
	w.Close()
	os.Stdout = stdout
	if got := string(<-out); got != string(want) {
		t.Errorf("stdout differs from testdata/stdout.golden:\n--- got\n%s--- want\n%s", got, want)
	}
}
