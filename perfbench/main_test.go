package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunRefusesBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "fig5-raw", "-seconds", "0"},
		{"-workload", "fig5-raw", "-trace", "2"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed %q before refusing", args, out.String())
		}
		if !strings.Contains(errOut.String(), "perfbench:") && !strings.Contains(errOut.String(), "flag") {
			t.Errorf("%v: no reason given: %q", args, errOut.String())
		}
	}
}

func TestRSSSamplingDoesNotAllocate(t *testing.T) {
	sm, err := openStatm()
	if err != nil {
		t.Skip(err)
	}
	defer sm.f.Close()
	mb, err := sm.rssMB()
	if err != nil || mb <= 0 {
		t.Fatalf("rssMB = %v, %v; want a positive size", mb, err)
	}
	// measure's alloc_mb must not grow with the number of samples taken.
	if n := testing.AllocsPerRun(100, func() { sm.rssMB() }); n != 0 {
		t.Errorf("rssMB allocates %v times per call, want 0", n)
	}
}
