package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"testing"

	"flowdroid/internal/core"
	"flowdroid/internal/insecurebank"
	"flowdroid/internal/service"
)

// TestJSONEnvelopeIsServiceReport drives the CLI on InsecureBank with
// -json: it exits 1 (leaks found), and its envelope is the daemon's
// service.Report — no key outside that type, and the same content as
// service.ResultReport of the same analysis once the path witnesses the
// CLI adds are stripped.
func TestJSONEnvelopeIsServiceReport(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, args := os.Stdout, os.Args
	os.Stdout, os.Args = w, []string{"flowdroid", "-json", "-insecurebank"}
	out := make(chan []byte)
	go func() {
		data, _ := io.ReadAll(r)
		out <- data
	}()
	code := run()
	w.Close()
	os.Stdout, os.Args = stdout, args
	data := <-out

	if code != exitLeaks {
		t.Fatalf("exit code %d, want %d (leaks found)\n%s", code, exitLeaks, data)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var got service.Report
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("envelope is not a service.Report: %v\n%s", err, data)
	}
	if len(got.Leaks) == 0 {
		t.Fatal("envelope reports no leaks")
	}
	for i := range got.Leaks {
		if len(got.Leaks[i].Path) == 0 {
			t.Errorf("leak %d carries no path witness", i)
		}
		got.Leaks[i].Path = nil
	}

	res, err := core.AnalyzeFiles(context.Background(), insecurebank.Files, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(service.ResultReport(res))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("CLI envelope differs from service.ResultReport\ngot:  %s\nwant: %s", gotJSON, wantJSON)
	}
}
