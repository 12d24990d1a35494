package intrawarp

import (
	"fmt"
	"math"
	"os"
	"path"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// docTables names the measured tables of EXPERIMENTS.md that copy the
// full-scale report: the heading each table follows, the report section
// it copies, and the doc columns whose report columns are named
// differently (a measured "max / avg" cell reads two report columns).
// Every other doc column either names its report column, compared
// case-insensitively, or starts with "paper": the paper's figures,
// which the report does not print.
var docTables = []struct {
	heading, section string
	cols             map[string][]string
}{
	{"## Fig. 11", "fig11", nil},
	{"## Fig. 12", "fig12", nil},
	{"## Table 4", "table4", map[string][]string{
		"measured BCC": {"bcc max", "bcc avg"},
		"measured SCC": {"scc max", "scc avg"},
	}},
	{"## §5.4", "stalls", nil},
}

// TestExperimentsDocMatchesReport holds the measured tables of
// EXPERIMENTS.md to docs/results-full.txt, which `make results-check`
// holds to `simd-bench -all`. A doc row names one report row, or a
// pattern such as rt-ao-*8 that names several. Each doc cell is a
// percentage, or a range such as 4–6%, and must hold the value of every
// report row its row names, at the precision the doc prints: within
// half a unit of its last printed digit.
func TestExperimentsDocMatchesReport(t *testing.T) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := os.ReadFile("docs/results-full.txt")
	if err != nil {
		t.Fatal(err)
	}
	report := parseReport(string(rep))
	for _, tab := range docTables {
		t.Run(tab.section, func(t *testing.T) {
			sec := report[tab.section]
			if sec == nil {
				t.Fatalf("the report has no %s section", tab.section)
			}
			cols, rows, err := markdownTable(string(doc), tab.heading)
			if err != nil {
				t.Fatal(err)
			}
			// repCols[c] lists the report columns doc column c reads; a
			// paper column reads none.
			repCols := make([][]int, len(cols))
			for c := 1; c < len(cols); c++ {
				names, ok := tab.cols[cols[c]]
				if !ok {
					if strings.HasPrefix(cols[c], "paper") {
						continue
					}
					names = []string{cols[c]}
				}
				for _, n := range names {
					i := sec.col(n)
					if i < 0 {
						t.Fatalf("doc column %q: the %s report has no column %q", cols[c], tab.section, n)
					}
					repCols[c] = append(repCols[c], i)
				}
			}
			for _, row := range rows {
				var matched [][]string
				for _, r := range sec.rows {
					if ok, _ := path.Match(row[0], r[0]); ok {
						matched = append(matched, r)
					}
				}
				if len(matched) == 0 {
					t.Errorf("row %q names no %s report row", row[0], tab.section)
					continue
				}
				for c, rcs := range repCols {
					if rcs == nil {
						continue
					}
					cells := strings.Split(row[c], " / ")
					if len(cells) != len(rcs) {
						t.Errorf("%s, %s: %q has %d values, want %d", row[0], cols[c], row[c], len(cells), len(rcs))
						continue
					}
					for i, cell := range cells {
						for _, r := range matched {
							if err := holds(cell, r[rcs[i]]); err != nil {
								t.Errorf("%s, %s: %v", r[0], sec.cols[rcs[i]], err)
							}
						}
					}
				}
			}
		})
	}
}

// reportTable is the table of one report section.
type reportTable struct {
	cols []string
	rows [][]string // each row's cells, its name first
}

// col returns the index of the column named name, compared
// case-insensitively, or -1.
func (r *reportTable) col(name string) int {
	for i, c := range r.cols {
		if strings.EqualFold(c, name) {
			return i
		}
	}
	return -1
}

// cellSep separates the cells of a report row: the renderer pads each
// column and joins them with two spaces, and no cell holds two spaces.
var cellSep = regexp.MustCompile(` {2,}`)

// parseReport reads the first table of every "== id: title ==" section
// of the report. A table is a header line, a rule of dashes, and the
// lines after it that split into as many cells as the header; the
// section's closing notes, which do not, end it.
func parseReport(text string) map[string]*reportTable {
	out := map[string]*reportTable{}
	lines := strings.Split(text, "\n")
	for i := 0; i+2 < len(lines); i++ {
		id, ok := strings.CutPrefix(lines[i], "== ")
		if !ok {
			continue
		}
		id, _, _ = strings.Cut(id, ":")
		tab := &reportTable{cols: cellSep.Split(strings.TrimSpace(lines[i+1]), -1)}
		for _, l := range lines[i+3:] {
			cells := cellSep.Split(strings.TrimSpace(l), -1)
			if len(cells) != len(tab.cols) {
				break
			}
			tab.rows = append(tab.rows, cells)
		}
		out[id] = tab
	}
	return out
}

// markdownTable returns the header and the rows of the first markdown
// table after the line of doc that starts with heading.
func markdownTable(doc, heading string) (cols []string, rows [][]string, err error) {
	lines := strings.Split(doc, "\n")
	start := -1
	for i, l := range lines {
		if strings.HasPrefix(l, heading) {
			start = i
			break
		}
	}
	if start < 0 {
		return nil, nil, fmt.Errorf("no heading %q", heading)
	}
	split := func(l string) []string {
		cells := strings.Split(strings.Trim(strings.TrimSpace(l), "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		return cells
	}
	for i := start + 1; i < len(lines); i++ {
		if !strings.HasPrefix(lines[i], "|") {
			if cols != nil {
				break
			}
			continue
		}
		switch cells := split(lines[i]); {
		case cols == nil:
			cols = cells
		case strings.HasPrefix(cells[0], "---"):
		case len(cells) != len(cols):
			return nil, nil, fmt.Errorf("%s: row %q has %d cells, want %d", heading, cells[0], len(cells), len(cols))
		default:
			rows = append(rows, cells)
		}
	}
	if len(rows) == 0 {
		return nil, nil, fmt.Errorf("no table rows after %q", heading)
	}
	return cols, rows, nil
}

// docValue is a doc cell: a percentage, or two joined by an en dash.
var docValue = regexp.MustCompile(`^(-?\d+(?:\.(\d+))?)(?:–(-?\d+(?:\.(\d+))?))?%$`)

// holds reports whether the report cell got, a percentage, lies within
// the doc cell's value or range at the doc's printed precision.
func holds(doc, got string) error {
	m := docValue.FindStringSubmatch(doc)
	if m == nil {
		return fmt.Errorf("doc cell %q is not a percentage or a range of two", doc)
	}
	v, err := strconv.ParseFloat(strings.TrimSuffix(got, "%"), 64)
	if err != nil || !strings.HasSuffix(got, "%") {
		return fmt.Errorf("report cell %q is not a percentage", got)
	}
	lo, _ := strconv.ParseFloat(m[1], 64)
	hi, hiDigits := lo, m[2]
	if m[3] != "" {
		hi, _ = strconv.ParseFloat(m[3], 64)
		hiDigits = m[4]
	}
	half := func(digits string) float64 { return 0.5*math.Pow10(-len(digits)) + 1e-9 }
	if v < lo-half(m[2]) || v > hi+half(hiDigits) {
		return fmt.Errorf("doc %s, report %s", doc, got)
	}
	return nil
}
