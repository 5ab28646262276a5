package stats

import (
	"fmt"
	"io"
	"strings"
)

// Table accumulates rows of string cells and renders them with fixed-width,
// right-aligned columns, in the style of the paper's Table I.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row. Cells beyond the header width are dropped; missing
// cells render empty.
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.header) {
		cells = cells[:len(t.header)]
	}
	t.rows = append(t.rows, cells)
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		var b strings.Builder
		for i, width := range widths {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(strings.Repeat(" ", width-len(c)))
			b.WriteString(c)
		}
		return b.String()
	}
	if _, err := fmt.Fprintln(w, line(t.header)); err != nil {
		return err
	}
	total := 0
	for _, width := range widths {
		total += width
	}
	total += 2 * (len(widths) - 1)
	if _, err := fmt.Fprintln(w, strings.Repeat("-", total)); err != nil {
		return err
	}
	for _, row := range t.rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	return nil
}

// RenderCSV writes the table in CSV form (cells are numeric or simple labels
// throughout this codebase, so no quoting is needed; commas in cells are
// rejected).
func (t *Table) RenderCSV(w io.Writer) error {
	writeRow := func(cells []string) error {
		for _, c := range cells {
			if strings.ContainsAny(c, ",\n\"") {
				return fmt.Errorf("stats: CSV cell %q needs quoting", c)
			}
		}
		_, err := fmt.Fprintln(w, strings.Join(cells, ","))
		return err
	}
	if err := writeRow(t.header); err != nil {
		return err
	}
	for _, row := range t.rows {
		full := row
		if len(full) < len(t.header) {
			full = append(append([]string{}, row...), make([]string, len(t.header)-len(row))...)
		}
		if err := writeRow(full); err != nil {
			return err
		}
	}
	return nil
}
