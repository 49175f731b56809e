package metrics

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered instrument in Prometheus
// text exposition format v0.0.4, families sorted by metric name so the
// output is stable across scrapes and diffable in tests.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()

	type family struct {
		name   string
		render func(*bufio.Writer)
	}
	fams := make([]family, 0, len(r.counters)+len(r.gauges)+len(r.vecs)+len(r.histograms))

	for _, c := range r.counters {
		c := c
		fams = append(fams, family{c.name, func(bw *bufio.Writer) {
			header(bw, c.name, c.help, "counter")
			fmt.Fprintf(bw, "%s %d\n", c.name, c.Value())
		}})
	}
	for _, g := range r.gauges {
		g := g
		fams = append(fams, family{g.name, func(bw *bufio.Writer) {
			header(bw, g.name, g.help, "gauge")
			fmt.Fprintf(bw, "%s %s\n", g.name, formatFloat(g.Value()))
		}})
	}
	for _, v := range r.vecs {
		v := v
		fams = append(fams, family{v.name, func(bw *bufio.Writer) {
			header(bw, v.name, v.help, "counter")
			for _, lv := range v.snapshotChildren() {
				fmt.Fprintf(bw, "%s{%s=\"%s\"} %d\n", v.name, v.label, escapeLabel(lv.label), lv.value)
			}
		}})
	}
	for _, h := range r.histograms {
		h := h
		fams = append(fams, family{h.name, func(bw *bufio.Writer) {
			header(bw, h.name, h.help, "histogram")
			d := h.Snapshot()
			var cum int64
			for i, b := range d.Bounds {
				cum += d.Counts[i]
				fmt.Fprintf(bw, "%s_bucket{le=\"%s\"} %d\n", h.name, formatFloat(b), cum)
			}
			fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", h.name, d.Count)
			fmt.Fprintf(bw, "%s_sum %s\n", h.name, formatFloat(d.Sum))
			fmt.Fprintf(bw, "%s_count %d\n", h.name, d.Count)
		}})
	}

	sort.Slice(fams, func(a, b int) bool { return fams[a].name < fams[b].name })

	bw := bufio.NewWriter(w)
	for _, f := range fams {
		f.render(bw)
	}
	return bw.Flush()
}

func header(bw *bufio.Writer, name, help, typ string) {
	if help != "" {
		fmt.Fprintf(bw, "# HELP %s %s\n", name, escapeHelp(help))
	}
	fmt.Fprintf(bw, "# TYPE %s %s\n", name, typ)
}

// formatFloat renders a float the way Prometheus expects: shortest
// round-trip representation, no exponent for typical magnitudes.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes backslash and newline for HELP lines (the v0.0.4
// escaping rules for help text).
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes backslash, double-quote and newline for label
// values; callers wrap the result in plain quotes.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}
