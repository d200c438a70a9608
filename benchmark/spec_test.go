package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON mirrors the root BENCHMARK.json, the contract the driver
// reads; spec.go is what the program measures. The two must say the same.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over the 64 KiB limit", len(blob))
	}
	var doc benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(doc.Command, " "); got != "go run ./benchmark" {
		t.Errorf("command = %q", got)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", doc.Paths)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program's default is %d", doc.RunSeconds, defaultSeconds)
	}

	seen := make(map[string]bool)
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q breaks the naming rule", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		name("workload", w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json says %q, spec.go %q", i, w.Name, workloads[i].Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.EndToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in spec.go, at most 16 allowed", len(doc.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range doc.EndToEnd {
		name("metric", m.Name)
		s := endToEnd[i]
		if m.Name != s.Name || m.Unit != s.Unit || m.Better != s.Better || math.Abs(m.Bound-s.Bound) > 1e-9 {
			t.Errorf("end-to-end %d: BENCHMARK.json says %+v, spec.go %+v", i, m, s)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: unit %q, better %q, bound %v", m.Name, m.Unit, m.Better, m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
			for _, o := range doc.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s must carry the largest bound; %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(doc.PerLayer) != len(perLayer) || len(doc.PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in spec.go, at most 128 allowed", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		name("metric", m.Name)
		s := perLayer[i]
		if m.Name != s.Name || m.Unit != s.Unit || m.Better != s.Better {
			t.Errorf("per-layer %d: BENCHMARK.json says %+v, spec.go %+v", i, m, s)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer %s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}
}

func TestWorkloadTable(t *testing.T) {
	foci := make(map[stage]string)
	for _, w := range workloads {
		sum := 0.0
		for _, s := range w.Share {
			if s <= 0 {
				t.Errorf("%s: every stage needs a share, or a metric goes unmeasured", w.Name)
			}
			sum += s
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: stage shares sum to %v, not 1", w.Name, sum)
		}
		if other, dup := foci[w.focus()]; dup {
			t.Errorf("%s and %s share the focus %s", w.Name, other, stageNames[w.focus()])
		}
		foci[w.focus()] = w.Name
		if offlineRows > w.N || (len(w.Opts) == 0) != (w.NProbe == 0) {
			t.Errorf("%s: offline rows %d of %d, nprobe %d with %d index options", w.Name, offlineRows, w.N, w.NProbe, len(w.Opts))
		}
	}
	if len(foci) != int(numStages) {
		t.Errorf("%d stages are some workload's focus, want all %d", len(foci), numStages)
	}
}
