// Package bench is the experiment harness behind cmd/experiments: one
// runner per table and figure of the paper's evaluation (§5), a unified
// method dispatcher so every clustering algorithm is swept identically, and
// plain-text/CSV reporting.
//
// Every experiment runs at a reduced default scale suited to a laptop (the
// paper's largest runs need CPU-days), with the same n:k ratios;
// cmd/experiments -scale grows the sizes toward the paper's on bigger
// hardware.
package bench

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Table is a rendered experiment result: a title, a header row and string
// cells. Rows print aligned; WriteCSV exports the same content.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a row of already formatted cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render formats the table with aligned columns.
func (t *Table) Render() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// WriteCSV emits the table as comma-separated values (quotes cells that
// contain commas).
func (t *Table) WriteCSV(w io.Writer) error {
	writeRow := func(cells []string) error {
		for i, c := range cells {
			if i > 0 {
				if _, err := io.WriteString(w, ","); err != nil {
					return err
				}
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
			}
			if _, err := io.WriteString(w, c); err != nil {
				return err
			}
		}
		_, err := io.WriteString(w, "\n")
		return err
	}
	if err := writeRow(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	return nil
}

// f formats a float compactly for table cells.
func f(v float64) string { return fmt.Sprintf("%.4g", v) }

// f3 formats a float with three decimals (recall values).
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// d formats an integer.
func d(v int) string { return fmt.Sprintf("%d", v) }

// dur formats a duration in seconds with millisecond resolution.
func dur(v time.Duration) string { return fmt.Sprintf("%.3fs", v.Seconds()) }
