package bench

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// The harness tests run every experiment at a tiny scale: they verify the
// plumbing (rows produced, columns consistent, trends sane), not the
// paper-scale numbers — those are exercised by cmd/experiments.

func TestTableRenderAndCSV(t *testing.T) {
	tab := &Table{Title: "t", Header: []string{"a", "bb"}}
	tab.AddRow("1", "2,x")
	out := tab.Render()
	if !strings.Contains(out, "== t ==") || !strings.Contains(out, "bb") {
		t.Fatalf("render missing pieces:\n%s", out)
	}
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"2,x"`) {
		t.Fatalf("csv quoting wrong: %s", buf.String())
	}
}

func TestRunDispatchesEveryMethod(t *testing.T) {
	data, err := Gen("sift", 600, 1)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, m := range append(Methods(), fig5Methods()...) {
		if seen[m] {
			continue
		}
		seen[m] = true
		res, err := Run(m, data, RunConfig{K: 12, Iters: 5, Seed: 2, Kappa: 8, Xi: 20, Tau: 2})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if len(res.Labels) != data.N || res.Distortion <= 0 {
			t.Fatalf("%s: bad result", m)
		}
	}
	// Anything else is unknown, including the retired side baselines such
	// as "bisecting" and the traditional variant "GK-means-".
	for _, m := range []string{"nope", "bisecting", "GK-means-"} {
		if _, err := Run(m, data, RunConfig{K: 2, Iters: 1}); err == nil {
			t.Fatalf("method %q should be unknown", m)
		}
	}
}

func TestRunNegativeSeed(t *testing.T) {
	// The sampled graph recall once started its node walk at int(seed) % n,
	// which is negative for a negative seed.
	data, _ := Gen("sift", 400, 1)
	res, err := Run(MGKMeans, data, RunConfig{K: 8, Iters: 3, Seed: -1, Kappa: 8, Xi: 20, Tau: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Recall <= 0 || res.Recall > 1 {
		t.Fatalf("graph recall %v out of (0,1]", res.Recall)
	}
}

func TestRunGraphMethodsReportRecallAndInit(t *testing.T) {
	data, _ := Gen("sift", 800, 3)
	res, err := Run(MGKMeans, data, RunConfig{K: 16, Iters: 5, Seed: 4, Kappa: 10, Xi: 25, Tau: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Recall <= 0 || res.Recall > 1 {
		t.Fatalf("graph recall %v out of (0,1]", res.Recall)
	}
	if res.InitTime <= 0 {
		t.Fatal("graph construction must count into InitTime")
	}
}

func TestFig1SmallScale(t *testing.T) {
	tab, err := Fig1(Fig1Config{N: 1000, ClusterSize: 50, MaxRank: 50, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("no rows")
	}
	// The co-occurrence probability must be far above the random floor
	// (50/1000 = 0.05) at rank 1 and non-increasing in trend.
	first := tab.Rows[0]
	var p1 float64
	if _, err := fscan(first[1], &p1); err != nil {
		t.Fatal(err)
	}
	if p1 < 0.2 {
		t.Fatalf("rank-1 co-occurrence %.3f too close to random", p1)
	}
}

func TestFig2SmallScale(t *testing.T) {
	tab, err := Fig2(Fig2Config{N: 1200, Tau: 5, Xi: 25, Kappa: 8, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("expected 5 rounds, got %d", len(tab.Rows))
	}
	var r1, r5 float64
	if _, err := fscan(tab.Rows[0][1], &r1); err != nil {
		t.Fatal(err)
	}
	if _, err := fscan(tab.Rows[4][1], &r5); err != nil {
		t.Fatal(err)
	}
	if r5 < r1 {
		t.Fatalf("recall should improve with tau: %.3f -> %.3f", r1, r5)
	}
}

func TestFig4SmallScale(t *testing.T) {
	tab, err := Fig4(Fig4Config{N: 1000, Kappa: 8, Seed: 7, Iters: 8})
	if err != nil {
		t.Fatal(err)
	}
	// 5 tau levels × 2 configs + 4 NN-Descent levels = 14 rows.
	if len(tab.Rows) != 14 {
		t.Fatalf("expected 14 rows, got %d", len(tab.Rows))
	}
}

func TestFig5SmallScale(t *testing.T) {
	tabs, err := Fig5("glove", Fig5Config{N: 800, Iters: 6, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 2 {
		t.Fatalf("expected 2 tables, got %d", len(tabs))
	}
	if len(tabs[0].Header) != 1+len(fig5Methods()) {
		t.Fatalf("iteration table has %d columns", len(tabs[0].Header))
	}
	if len(tabs[1].Rows) != len(fig5Methods()) {
		t.Fatalf("time table has %d rows", len(tabs[1].Rows))
	}
}

func TestFig6SmallScale(t *testing.T) {
	tabs, err := Fig6Size(Fig6Config{Sizes: []int{300, 600}, KForN: 8, Iters: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs[0].Rows) != 2*len(Methods()) {
		t.Fatalf("size sweep rows %d", len(tabs[0].Rows))
	}
	tabs, err = Fig6K(Fig6Config{NForK: 600, Ks: []int{8, 16}, Iters: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs[0].Rows) != 2*len(Methods()) {
		t.Fatalf("k sweep rows %d", len(tabs[0].Rows))
	}
}

func TestTable1(t *testing.T) {
	tab := Table1()
	if len(tab.Rows) != 4 {
		t.Fatalf("Table 1 rows %d", len(tab.Rows))
	}
}

func TestTable2SmallScale(t *testing.T) {
	tab, err := Table2(Table2Config{N: 600, Iters: 4, Seed: 10, Kappa: 8, Tau: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("Table 2 rows %d", len(tab.Rows))
	}
	// closure k-means has no graph: recall column must be N.A.
	if tab.Rows[2][5] != "N.A." {
		t.Fatalf("closure recall cell %q", tab.Rows[2][5])
	}
}

func TestANNSSmallScale(t *testing.T) {
	tab, err := ANNS(ANNSConfig{N: 600, Queries: 30, Tau: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("ANNS rows %d", len(tab.Rows))
	}
}

func TestAblationSmallScale(t *testing.T) {
	tab, err := Ablation(AblationConfig{N: 400, Iters: 4, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	// 5 kappa + 4 xi + 4 tau rows.
	if len(tab.Rows) != 13 {
		t.Fatalf("ablation rows %d", len(tab.Rows))
	}
}

func TestGenUnknownDataset(t *testing.T) {
	if _, err := Gen("bogus", 10, 1); err == nil {
		t.Fatal("unknown dataset should error")
	}
}

func TestSamplePoints(t *testing.T) {
	pts := samplePoints(30)
	if pts[len(pts)-1] != 30 {
		t.Fatalf("last point %d, want 30", pts[len(pts)-1])
	}
	pts = samplePoints(4)
	for _, p := range pts {
		if p > 4 {
			t.Fatalf("point %d exceeds max", p)
		}
	}
}

// fscan parses a float from a table cell.
func fscan(s string, v *float64) (int, error) {
	return fmt.Sscanf(s, "%g", v)
}
