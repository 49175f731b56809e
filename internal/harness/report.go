package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// WriteReport assembles every artifact in the results directory into a
// single REPORT.md: the markdown tables inline, and for each figure
// its ASCII rendering in a code fence with a pointer to the CSV. The
// report is the one-file summary a reviewer reads next to
// EXPERIMENTS.md.
func WriteReport(dir string) error {
	var sb strings.Builder
	sb.WriteString("# Task Bench results\n\n")
	sb.WriteString("Generated by `cmd/figures`. Raw data: one CSV per figure in this directory.\n\n")

	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var tables, plots, mds []string
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasPrefix(name, "table") && strings.HasSuffix(name, ".md"):
			tables = append(tables, name)
		case strings.HasSuffix(name, ".txt"):
			plots = append(plots, name)
		case strings.HasSuffix(name, ".md") && name != "REPORT.md":
			mds = append(mds, name)
		}
	}
	sort.Strings(tables)
	sortFigures(plots)
	sort.Strings(mds)

	for _, name := range tables {
		body, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		sb.WriteString("## " + strings.TrimSuffix(name, ".md") + "\n\n")
		sb.Write(body)
		sb.WriteString("\n")
	}
	for _, name := range mds {
		if slices.Contains(tables, name) {
			continue
		}
		body, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		sb.WriteString("## " + strings.TrimSuffix(name, ".md") + "\n\n")
		sb.Write(body)
		sb.WriteString("\n")
	}
	for _, name := range plots {
		body, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		id := strings.TrimSuffix(name, ".txt")
		sb.WriteString("## " + id + "\n\n")
		sb.WriteString("```\n")
		sb.Write(body)
		sb.WriteString("```\n\n")
		sb.WriteString(fmt.Sprintf("Data: [`%s.csv`](./%s.csv)\n\n", id, id))
	}
	return os.WriteFile(filepath.Join(dir, "REPORT.md"), []byte(sb.String()), 0o644)
}

// sortFigures orders fig names numerically (fig4 before fig11).
func sortFigures(names []string) {
	key := func(s string) (int, string) {
		s = strings.TrimSuffix(s, ".txt")
		rest := strings.TrimPrefix(s, "fig")
		num := 0
		i := 0
		for i < len(rest) && rest[i] >= '0' && rest[i] <= '9' {
			i++
		}
		if i > 0 {
			num, _ = strconv.Atoi(rest[:i])
		}
		return num, rest[i:]
	}
	sort.Slice(names, func(a, b int) bool {
		na, sa := key(names[a])
		nb, sb := key(names[b])
		if na != nb {
			return na < nb
		}
		return sa < sb
	})
}
