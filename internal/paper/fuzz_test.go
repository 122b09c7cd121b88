package paper

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// FuzzParseSpec holds the experiments.json parser to two properties: it
// never panics (every rejection wraps ErrSpec), and every accepted spec
// re-marshals through encoding/json and re-parses to the identical spec.
// Its seed corpus lives under testdata/fuzz/FuzzParseSpec/ and runs as an
// ordinary test; `go test -run xxx -fuzz FuzzParseSpec -fuzztime 60s
// ./internal/paper` explores beyond it.
func FuzzParseSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := ParseSpec(bytes.NewReader(body))
		if err != nil {
			if !errors.Is(err, ErrSpec) {
				t.Fatalf("rejection does not wrap ErrSpec: %v", err)
			}
			return
		}
		out, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		back, err := ParseSpec(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("accepted spec re-marshals to %s, which does not parse: %v", out, err)
		}
		if !reflect.DeepEqual(spec, back) {
			t.Fatalf("round trip through %s changed the spec:\n got %#v\nwant %#v", out, back, spec)
		}
	})
}

// TestParseSpecEmptyListsMeanAbsent is the regression test for the first
// FuzzParseSpec finding: "traces": [] and "fleets": [] decoded to empty
// non-nil slices, which JSON re-marshals as absent keys, so an accepted
// spec did not survive its own round trip and compared unequal to the
// same spec without the keys.
func TestParseSpecEmptyListsMeanAbsent(t *testing.T) {
	parse := func(s string) Spec {
		t.Helper()
		spec, err := ParseSpec(strings.NewReader(s))
		if err != nil {
			t.Fatal(err)
		}
		return spec
	}
	want := parse(`{"experiments":[{"name":"a"}]}`)
	for _, s := range []string{
		`{"experiments":[{"name":"a","traces":[]}]}`,
		`{"experiments":[{"name":"a","fleets":[]}]}`,
	} {
		if got := parse(s); !reflect.DeepEqual(got, want) {
			t.Errorf("%s parsed to %#v, want %#v", s, got, want)
		}
	}
}
