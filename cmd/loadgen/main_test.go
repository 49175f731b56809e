package main

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestParseShapes(t *testing.T) {
	for _, tc := range []struct {
		in      string
		want    []string // type/WIDTHxSTEPS/RANKS of each parsed spec, in order
		wantErr string
	}{
		{in: "stencil_1d_periodic/6x8/2,trivial/6x8/2", want: []string{"stencil_1d_periodic/6x8/2", "trivial/6x8/2"}},
		{in: " fft/8x4/4 , ,no_comm/3x5/1,", want: []string{"fft/8x4/4", "no_comm/3x5/1"}},
		{in: "nosuch/6x8/2", wantErr: `shape "nosuch/6x8/2"`},
		{in: "trivial/6x8", wantErr: "want type/WIDTHxSTEPS/RANKS"},
		{in: "trivial/68/2", wantErr: "want WIDTHxSTEPS"},
		{in: "trivial/6xeight/2", wantErr: "bad dimensions"},
		{in: "trivial/0x8/2", wantErr: "bad dimensions"},
		{in: "trivial/6x8/two", wantErr: "bad dimensions"},
		{in: "trivial/6x8/0", wantErr: "bad dimensions"},
		{in: "", wantErr: "no shapes"},
		{in: " , ", wantErr: "no shapes"},
	} {
		specs, err := parseShapes(tc.in, 3*time.Millisecond)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("parseShapes(%q) error = %v, want one containing %q", tc.in, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseShapes(%q): %v", tc.in, err)
			continue
		}
		if len(specs) != len(tc.want) {
			t.Errorf("parseShapes(%q) gave %d specs, want %d", tc.in, len(specs), len(tc.want))
			continue
		}
		for i, spec := range specs {
			g := spec.Graphs[0]
			got := fmt.Sprintf("%s/%dx%d/%d", g.Type, g.Width, g.Steps, spec.Workers)
			if got != tc.want[i] {
				t.Errorf("parseShapes(%q)[%d] = %s, want %s", tc.in, i, got, tc.want[i])
			}
			if g.Kernel != "busy_wait" || g.WaitNanos != int64(3*time.Millisecond) {
				t.Errorf("parseShapes(%q)[%d] kernel = %s/%dns, want busy_wait/3ms", tc.in, i, g.Kernel, g.WaitNanos)
			}
		}
	}
}

// TestRunArgumentValidation covers what run refuses before it dials:
// none of these cases may reach the network.
func TestRunArgumentValidation(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		wantErr string
	}{
		{[]string{"-preset", "burst"}, "-coordinator is required"},
		{[]string{"-coordinator", "192.0.2.1:1", "-report", "yaml"}, `-report must be console, json or none, got "yaml"`},
		{[]string{"-coordinator", "192.0.2.1:1", "-report", "json", "-timeline-json", "-"}, "both claim stdout"},
		{[]string{"-coordinator", "192.0.2.1:1", "-shapes", "nosuch/6x8/2"}, `shape "nosuch/6x8/2"`},
		{[]string{"-coordinator", "192.0.2.1:1", "-preset", "nosuch"}, "nosuch"},
	} {
		err := run(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("run(%v) error = %v, want one containing %q", tc.args, err, tc.wantErr)
		}
	}
}
