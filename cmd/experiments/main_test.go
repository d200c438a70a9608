package main

import (
	"math"
	"strings"
	"testing"
)

func TestRealMainRunSelection(t *testing.T) {
	cases := []struct {
		run     string
		scale   float64
		wantErr string // substring of the error; "" means success
	}{
		{"table1", 0.1, ""},
		{" table1 , table1 ", 0.1, ""},
		{"tabel2", 0.1, `unknown experiment "tabel2"`},
		// One misspelt name rejects the whole list before anything runs.
		{"table1,tabel2", 0.1, `unknown experiment "tabel2"`},
		{"", 0.1, `unknown experiment ""`},
		// The side experiments no figure or table reads are gone.
		{"baselines", 0.1, `unknown experiment "baselines"`},
		{"dims", 0.1, `unknown experiment "dims"`},
		// A scale that would make every size "<= 0 selects default".
		{"table1", 0, "-scale must be a positive finite number"},
		{"table1", -1, "-scale must be a positive finite number"},
		{"table1", math.NaN(), "-scale must be a positive finite number"},
		{"table1", math.Inf(1), "-scale must be a positive finite number"},
		{"table1", math.Inf(-1), "-scale must be a positive finite number"},
	}
	for _, c := range cases {
		err := realMain(c.run, c.scale, 1, "")
		if c.wantErr == "" {
			if err != nil {
				t.Errorf("-run %q -scale %v: %v", c.run, c.scale, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("-run %q -scale %v: error %v, want one containing %s", c.run, c.scale, err, c.wantErr)
			continue
		}
		if !strings.HasPrefix(c.wantErr, "unknown experiment") {
			continue
		}
		// The error names every valid experiment, and only those.
		_, valid, _ := strings.Cut(err.Error(), "(valid: ")
		names := strings.Split(strings.TrimSuffix(valid, ")"), ", ")
		want := []string{"all", "fig7", "table1", "fig1", "fig2", "fig4", "fig5", "fig6",
			"table2", "anns", "ablation"}
		if strings.Join(names, ",") != strings.Join(want, ",") {
			t.Errorf("-run %q: valid names %q, want %q", c.run, names, want)
		}
	}
}
