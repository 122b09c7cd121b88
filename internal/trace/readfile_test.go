package trace

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// readFileReference is what ReadFile replaces: the reference parser, then
// a dense quantization when width > 0, with every error but the open error
// prefixed by the path.
func readFileReference(path string, width int) (*Trace, error) {
	body, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	tr, err := readReference(bytes.NewReader(body))
	if err == nil && width > 0 {
		tr, err = quantizeReference(tr, width)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return tr, nil
}

// checkReadFileMatches fails t unless ReadFile(path, width) and the
// reference agree: the same error text, or the same samples bit for bit
// with the same Max and Fingerprint.
func checkReadFileMatches(t *testing.T, path string, width int) {
	t.Helper()
	got, gotErr := ReadFile(path, width)
	want, wantErr := readFileReference(path, width)
	if gotErr != nil || wantErr != nil {
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("ReadFile(width %d) error = %v, reference %v", width, gotErr, wantErr)
		}
		return
	}
	if got.Len() != want.Len() {
		t.Fatalf("ReadFile(width %d) has %d samples, reference %d", width, got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if math.Float64bits(got.At(i)) != math.Float64bits(want.At(i)) {
			t.Fatalf("ReadFile(width %d) sample %d = %v, reference %v", width, i, got.At(i), want.At(i))
		}
	}
	if math.Float64bits(got.Max()) != math.Float64bits(want.Max()) {
		t.Fatalf("ReadFile(width %d) Max = %v, reference %v", width, got.Max(), want.Max())
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("ReadFile(width %d) Fingerprint = %x, reference %x", width, got.Fingerprint(), want.Fingerprint())
	}
}

func writeTempFile(t testing.TB, body []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.txt")
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReadFileMatchesReadQuantize(t *testing.T) {
	var day bytes.Buffer
	if err := Write(&day, ioTestTraces(t)["raw"]); err != nil {
		t.Fatal(err)
	}
	cases := map[string]string{
		"no trailing newline": "1\n2\n3\n4",
		"crlf":                "1\r\n1\r\n# c\r\n\r\n2\r\n2\r\n",
		"comments and blanks": "# header\n\n   \n\t\n1\n#1\n 1 \n5\n",
		"indexed":             "0,1\n1,2\n 2 , 3 \n3,4\n4,5\n5,6\n6,7\n7,8\n",
		"indexed gap":         "0,1\n2,1\n",
		"bad rate":            "1\n1x\n",
		"nan":                 "1\n2\nNaN\n",
		"negative":            "1\n2\n3\n-1\n",
		"inf":                 "1\n+Inf\n",
		"mean overflows":      "1e308\n1e308\n1e308\n",
		"long line":           "1\n2\n" + strings.Repeat("9", 1<<20) + "\n3\n",
		"empty":               "",
		"only comments":       "# only\n# comments\n",
		"one day":             day.String(),
	}
	for name, body := range cases {
		path := writeTempFile(t, []byte(body))
		for _, width := range []int{0, 1, 7, 600} {
			t.Run(fmt.Sprintf("%s/width=%d", name, width), func(t *testing.T) { checkReadFileMatches(t, path, width) })
		}
	}
}

func TestReadFileOpenError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing.txt")
	_, err := ReadFile(path, 600)
	_, want := os.Open(path)
	if err == nil || err.Error() != want.Error() {
		t.Fatalf("ReadFile error = %v, want os.Open's %v", err, want)
	}
}

// TestReadFileSizesOnce: a raw load puts a regular file's samples in one
// array sized from its line count, and a quantized load holds no samples,
// only one run per window at most.
func TestReadFileSizesOnce(t *testing.T) {
	for name, tr := range ioTestTraces(t) {
		if name == "edges" {
			continue // its mean overflows
		}
		var file bytes.Buffer
		if err := Write(&file, tr); err != nil {
			t.Fatal(err)
		}
		path := writeTempFile(t, file.Bytes())
		got, err := ReadFile(path, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Write's header line and the room for a last line without a
		// newline are the only spare slots.
		if c := cap(got.values); c != got.Len()+2 {
			t.Errorf("%s: %d samples in an array of %d, want %d", name, got.Len(), c, got.Len()+2)
		}
		const width = 600
		if got, err = ReadFile(path, width); err != nil {
			t.Fatal(err)
		}
		if windows := (got.Len() + width - 1) / width; got.values != nil || len(got.runVals) > windows {
			t.Errorf("%s, width %d: %d dense samples and %d runs, want none and at most %d", name, width, len(got.values), len(got.runVals), windows)
		}
	}
}

// TestReadFilePipe: a file that cannot be read twice is parsed as it
// comes, with the same result.
func TestReadFilePipe(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fifo")
	if err := syscall.Mkfifo(path, 0o600); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
	body := "# c\n1\n2\n3\n4\n5\n"
	go func() {
		if f, err := os.OpenFile(path, os.O_WRONLY, 0); err == nil {
			f.WriteString(body)
			f.Close()
		}
	}()
	got, err := ReadFile(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := MustNew([]float64{1, 2, 3, 4, 5}).Quantize(2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("ReadFile of a pipe = %v, want %v", got.Values(), want.Values())
	}
}
