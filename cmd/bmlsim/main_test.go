package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestShortTraceNeedsFirst: the paper's evaluation starts on day 6, so a
// trace or a -last that ends sooner is refused up front with a message
// naming -first, and runs once -first is given.
func TestShortTraceNeedsFirst(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the command")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "bmlsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	// One day of constant load, as a trace file.
	file := filepath.Join(dir, "day.txt")
	if err := os.WriteFile(file, []byte(strings.Repeat("1200\n", 86400)), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-predictor", "oracle", "-error", "0.2", "-days", "5"},
		{"-days", "1", "-quantize", "600"},
		{"-days", "8", "-last", "4", "-quantize", "600"},
		{"-trace", file},
	} {
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err == nil {
			t.Errorf("bmlsim %s: accepted, want a refusal naming -first", strings.Join(args, " "))
		} else if !strings.Contains(string(out), "pass -first") {
			t.Errorf("bmlsim %s: %s, want a message naming -first", strings.Join(args, " "), out)
		}
		args = append(args, "-first", "1")
		if out, err := exec.Command(bin, args...).CombinedOutput(); err != nil {
			t.Errorf("bmlsim %s: %v\n%s", strings.Join(args, " "), err, out)
		}
	}
}
