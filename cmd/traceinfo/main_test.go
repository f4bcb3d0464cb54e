package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"twolevel/internal/spec"
	"twolevel/internal/trace"
)

// TestReportDigests pins the twolevel-traceinfo/2 document of every
// workload at 200k references: the first 16 hex digits of the SHA-256
// of `traceinfo -json -workload W -n 200000` stdout, which this test
// renders through the same calls.
func TestReportDigests(t *testing.T) {
	want := map[string]string{
		"gcc1":     "94bf70755356cc8a",
		"espresso": "3597d60d91382ecd",
		"fpppp":    "1c559c0adf7227b3",
		"doduc":    "e723c02577b6da04",
		"li":       "e7be272e1a66d3ce",
		"eqntott":  "50a3f4d766e0ce34",
		"tomcatv":  "15093cb868ea45f4",
	}
	for _, name := range spec.Names() {
		w, err := spec.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := trace.Analyze(w.Stream(200_000)).RenderJSON(&buf, w.Name); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:8]); got != want[name] {
			t.Errorf("%s: report digest %s, want %s", name, got, want[name])
		}
	}
}
