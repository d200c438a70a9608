package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestSmoke walks every workload through the whole pipeline at -smoke
// scale — corpus, builds, the daemon as a separate process, writes, crash
// and recovery — so tier-1 compiles and exercises everything the benchmark
// does. It asserts that runs are correct and complete, never how fast.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns gkserved")
	}
	for _, wl := range workloads {
		traced := wl.Name == "serve-read" // one traced run covers the ladder and the trace writer
		t.Run(wl.Name, func(t *testing.T) {
			t.Parallel()
			parent := t.TempDir()
			res, err := runWorkload(options{workload: wl, seed: 11, seconds: 3, smoke: true, trace: traced}, parent)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Errorf("run not correct: %q", res.Checks)
			}
			attempted, failed := res.totals()
			if attempted == 0 || failed != 0 {
				t.Errorf("attempted %d, failed %d", attempted, failed)
			}

			// The last line of output is the driver's contract.
			var line struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(res.contractLine()), &line); err != nil {
				t.Fatal(err)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%d metrics on the contract line, want %d", len(line.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := line.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("metric %s: on the line %v, unit %q, want unit %q", m.Name, ok, got.Unit, m.Unit)
				}
			}

			if traced {
				blob, err := os.ReadFile(filepath.Join(parent, "trace-"+wl.Name+".json"))
				if err != nil {
					t.Fatal(err)
				}
				var spans []span
				if err := json.Unmarshal(blob, &spans); err != nil || len(spans) == 0 {
					t.Errorf("trace file: %d spans, err %v", len(spans), err)
				}
				if len(res.Ladder) == 0 {
					t.Error("traced run printed no ladder")
				}
			}
			if left, _ := filepath.Glob(filepath.Join(parent, "run-*")); len(left) > 0 {
				t.Errorf("run left its scratch directory behind: %v", left)
			}
		})
	}
}

func TestAgree(t *testing.T) {
	mk := func(p50 float64, comps float64) []*result {
		r := &result{Workload: "serve-read", Correct: true, EndToEnd: map[string]measure{}, PerLayer: map[string]measure{}}
		for _, m := range endToEnd {
			r.e2e(m.Name, measure{Value: 100})
		}
		r.e2e("search_p50_us", measure{Value: p50})
		r.layer("anns.dist_comps_per_query", comps, 1)
		return []*result{r}
	}
	sink := io.Discard
	if n := agree(sink, mk(100, 431), mk(110, 431)); n != 0 {
		t.Errorf("10%% apart under a 20%% bound: %d violations, want 0", n)
	}
	if n := agree(sink, mk(100, 431), mk(130, 431)); n != 1 {
		t.Errorf("30%% apart under a 20%% bound: %d violations, want 1", n)
	}
	if n := agree(sink, mk(130, 431), mk(100, 431)); n != 1 {
		t.Errorf("agreement must not depend on the order of the files: %d violations, want 1", n)
	}
	if n := agree(sink, mk(100, 431), mk(100, 432)); n != 1 {
		t.Errorf("an exact count that differs: %d violations, want 1", n)
	}
	if n := agree(sink, mk(100, 431), nil); n != 1 {
		t.Errorf("a workload missing from the second file: %d violations, want 1", n)
	}
}
