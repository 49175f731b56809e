package report

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
)

// TestParseMode pins the -report flag's value set, shared by
// cmd/taskbench, cmd/metg and cmd/loadgen, and that Write dispatches on
// it: json and console to the two renderers, none to nothing.
func TestParseMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Mode
		ok   bool
	}{
		{"console", Console, true},
		{"json", JSON, true},
		{"none", None, true},
		{"", "", false},
		{"JSON", "", false},
		{"yaml", "", false},
	} {
		got, err := ParseMode(tc.in)
		if got != tc.want || (err == nil) != tc.ok {
			t.Errorf("ParseMode(%q) = %q, %v; want %q, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
		if err != nil && !strings.Contains(err.Error(), fmt.Sprintf("got %q", tc.in)) {
			t.Errorf("ParseMode(%q) error %q does not quote the bad value", tc.in, err)
		}
	}

	r := FromRuns("t", nil, nil)
	var viaMode, direct bytes.Buffer
	for _, tc := range []struct {
		mode   Mode
		render func(io.Writer) error
	}{
		{JSON, r.WriteJSON},
		{Console, r.WriteConsole},
		{None, func(io.Writer) error { return nil }},
	} {
		viaMode.Reset()
		direct.Reset()
		if err := r.Write(&viaMode, tc.mode); err != nil {
			t.Fatal(err)
		}
		if err := tc.render(&direct); err != nil {
			t.Fatal(err)
		}
		if viaMode.String() != direct.String() {
			t.Errorf("Write(%s) differs from the direct renderer:\n%s\n---\n%s", tc.mode, viaMode.String(), direct.String())
		}
	}
}
