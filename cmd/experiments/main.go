// Command experiments regenerates every table and figure of the paper's
// evaluation section at laptop scale (problem sizes are scaled down so the
// full suite finishes in minutes; -scale multiplies them back up).
//
//	experiments -run all            # everything (can take ~20 min)
//	experiments -run fig2,table2    # selected experiments
//	experiments -run fig6 -scale 2  # double the default problem sizes
//	experiments -csv out/           # additionally write CSV files
//
// Available experiments: table1, fig1, fig2, fig4, fig5, fig6, fig7,
// table2, anns, ablation. (fig7 is the distortion companion of fig6 and is
// produced by the same sweep; both names run it.) -scale must be a positive
// finite number.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"gkmeans/internal/bench"
)

func main() {
	var (
		run   = flag.String("run", "all", "comma-separated experiment list or 'all'")
		scale = flag.Float64("scale", 1, "size multiplier on every experiment")
		seed  = flag.Int64("seed", 1, "RNG seed")
		csv   = flag.String("csv", "", "directory to also write CSV files into")
	)
	flag.Parse()
	if err := realMain(*run, *scale, *seed, *csv); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func realMain(run string, scale float64, seed int64, csvDir string) error {
	// Every runner reads a size <= 0 as "use the default", so a zero or
	// invalid scale would silently run the full default sizes.
	if !(scale > 0) || math.IsInf(scale, 1) {
		return fmt.Errorf("-scale must be a positive finite number, got %v", scale)
	}
	sc := func(n int) int { return int(float64(n) * scale) }

	type experiment struct {
		name string
		fn   func() ([]*bench.Table, error)
	}
	experiments := []experiment{
		{"table1", func() ([]*bench.Table, error) {
			return []*bench.Table{bench.Table1()}, nil
		}},
		{"fig1", func() ([]*bench.Table, error) {
			t, err := bench.Fig1(bench.Fig1Config{N: sc(6000), Seed: seed})
			return []*bench.Table{t}, err
		}},
		{"fig2", func() ([]*bench.Table, error) {
			t, err := bench.Fig2(bench.Fig2Config{N: sc(6000), Seed: seed})
			return []*bench.Table{t}, err
		}},
		{"fig4", func() ([]*bench.Table, error) {
			t, err := bench.Fig4(bench.Fig4Config{N: sc(8000), Seed: seed})
			return []*bench.Table{t}, err
		}},
		{"fig5", func() ([]*bench.Table, error) {
			var out []*bench.Table
			for _, ds := range []string{"sift", "glove", "gist"} {
				tabs, err := bench.Fig5(ds, bench.Fig5Config{N: sc(8000), Seed: seed})
				if err != nil {
					return nil, err
				}
				out = append(out, tabs...)
			}
			return out, nil
		}},
		{"fig6", func() ([]*bench.Table, error) {
			var out []*bench.Table
			sizes := []int{sc(1000), sc(2000), sc(4000), sc(8000), sc(16000)}
			tabs, err := bench.Fig6Size(bench.Fig6Config{Sizes: sizes, Seed: seed})
			if err != nil {
				return nil, err
			}
			out = append(out, tabs...)
			tabs, err = bench.Fig6K(bench.Fig6Config{NForK: sc(8000), Seed: seed})
			if err != nil {
				return nil, err
			}
			return append(out, tabs...), nil
		}},
		{"table2", func() ([]*bench.Table, error) {
			t, err := bench.Table2(bench.Table2Config{N: sc(10000), Seed: seed})
			return []*bench.Table{t}, err
		}},
		{"anns", func() ([]*bench.Table, error) {
			t, err := bench.ANNS(bench.ANNSConfig{N: sc(8000), Seed: seed})
			return []*bench.Table{t}, err
		}},
		{"ablation", func() ([]*bench.Table, error) {
			t, err := bench.Ablation(bench.AblationConfig{N: sc(4000), Seed: seed})
			return []*bench.Table{t}, err
		}},
	}

	names := []string{"all", "fig7"} // fig7 shares fig6's sweep
	for _, e := range experiments {
		names = append(names, e.name)
	}
	want := map[string]bool{}
	for _, name := range strings.Split(run, ",") {
		name = strings.TrimSpace(name)
		if !slices.Contains(names, name) {
			return fmt.Errorf("unknown experiment %q (valid: %s)", name, strings.Join(names, ", "))
		}
		want[name] = true
	}

	for _, e := range experiments {
		if !want["all"] && !want[e.name] && !(e.name == "fig6" && want["fig7"]) {
			continue
		}
		fmt.Printf("--- %s ---\n", e.name)
		start := time.Now()
		tabs, err := e.fn()
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		for i, t := range tabs {
			fmt.Println(t.Render())
			if csvDir != "" {
				if err := writeCSV(csvDir, fmt.Sprintf("%s_%d.csv", e.name, i), t); err != nil {
					return err
				}
			}
		}
		fmt.Printf("(%s finished in %v)\n\n", e.name, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

func writeCSV(dir, name string, t *bench.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	if err := t.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
