package main

import (
	"strings"
	"testing"
)

func TestRealMainRunSelection(t *testing.T) {
	cases := []struct {
		run     string
		wantErr string // substring of the error; "" means success
	}{
		{"table1", ""},
		{" table1 , table1 ", ""},
		{"baselines,dims", ""},
		{"tabel2", `unknown experiment "tabel2"`},
		// One misspelt name rejects the whole list before anything runs.
		{"table1,tabel2", `unknown experiment "tabel2"`},
		{"", `unknown experiment ""`},
	}
	for _, c := range cases {
		err := realMain(c.run, 0.1, 1, "")
		if c.wantErr == "" {
			if err != nil {
				t.Errorf("-run %q: %v", c.run, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("-run %q: error %v, want one containing %s", c.run, err, c.wantErr)
			continue
		}
		// The error names every valid experiment.
		for _, name := range []string{"all", "table1", "fig1", "fig2", "fig4", "fig5", "fig6",
			"fig7", "table2", "anns", "ablation", "baselines", "dims"} {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("-run %q: error %q does not list %q", c.run, err, name)
			}
		}
	}
}
