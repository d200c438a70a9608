package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
)

// env is the environment and calibration block every result carries:
// numbers from two machines, or from one machine on two days, are only
// comparable when these agree.
type env struct {
	NProc            int     `json:"nproc"`
	GOMAXPROCS       int     `json:"gomaxprocs"`
	GoVersion        string  `json:"go_version"`
	Commit           string  `json:"commit"` // "unknown" outside a git checkout
	Kernel           string  `json:"kernel"`
	FSType           string  `json:"fs_type"` // of the scratch directory the WAL lives in
	TimerOvershootUS float64 `json:"timer_overshoot_us"`
}

func readEnv(workDir string) env {
	e := env{
		NProc:            runtime.NumCPU(),
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		GoVersion:        runtime.Version(),
		Commit:           "unknown",
		Kernel:           "unknown",
		FSType:           "unknown",
		TimerOvershootUS: timerOvershootUS(),
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	if blob, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(blob))
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(workDir, &st); err == nil {
		e.FSType = fmt.Sprintf("0x%x", uint64(st.Type))
	}
	return e
}

type phaseCount struct {
	Phase     string `json:"phase"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
}

// ladderRow is one rung of "where a served request's time goes".
type ladderRow struct {
	Layer  string  `json:"layer"`
	SelfUS float64 `json:"self_us"`
	How    string  `json:"how"`
}

// result is what one run of one workload produces; -out writes it as JSON.
type result struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Smoke    bool    `json:"smoke,omitempty"`
	Env      env     `json:"env"`

	Correct bool         `json:"correct"`
	Checks  []string     `json:"checks"`
	Notes   []string     `json:"notes,omitempty"`
	WarmUps int          `json:"warm_ups"`
	Phases  []phaseCount `json:"phases"`
	TimedS  float64      `json:"timed_s"` // sum of the timed phases

	EndToEnd map[string]measure `json:"end_to_end"`
	PerLayer map[string]measure `json:"per_layer,omitempty"`
	Ladder   []ladderRow        `json:"ladder,omitempty"`
}

func newResult(o options) *result {
	return &result{
		Workload: o.workload.Name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Smoke: o.smoke,
		Env:      readEnv(o.workDir),
		Correct:  true,
		EndToEnd: make(map[string]measure),
		PerLayer: make(map[string]measure),
	}
}

// e2e stores an end-to-end measure under a name that must be in the spec,
// filling in the unit from there.
func (r *result) e2e(name string, m measure) {
	r.EndToEnd[name] = withUnit(endToEnd, name, m)
}

// layer stores a per-layer number the same way.
func (r *result) layer(name string, value float64, samples int) {
	r.PerLayer[name] = withUnit(perLayer, name, measure{Value: value, Samples: samples})
}

func withUnit(list []metricSpec, name string, m measure) measure {
	spec, ok := findMetric(list, name)
	if !ok {
		panic("benchmark: metric " + name + " is not in the spec")
	}
	m.Unit = spec.Unit
	return m
}

func (r *result) addPhase(name string, attempted, failed int) {
	for i := range r.Phases {
		if r.Phases[i].Phase == name {
			r.Phases[i].Attempted += attempted
			r.Phases[i].Failed += failed
			return
		}
	}
	r.Phases = append(r.Phases, phaseCount{name, attempted, failed})
}

func (r *result) totals() (attempted, failed int) {
	for _, p := range r.Phases {
		attempted += p.Attempted
		failed += p.Failed
	}
	return attempted, failed
}

// finish applies the gates that look at the result as a whole: every stage
// warmed up, and no section absent, zero-filled or not a number.
func (r *result) finish() error {
	if r.WarmUps < int(numStages) {
		return fmt.Errorf("only %d of %d warm-up passes ran", r.WarmUps, numStages)
	}
	if err := complete(endToEnd, r.EndToEnd); err != nil {
		return err
	}
	if r.Trace {
		if err := complete(perLayer, r.PerLayer); err != nil {
			return err
		}
	}
	if _, failed := r.totals(); failed > 0 {
		r.Correct = false
	}
	return nil
}

func complete(list []metricSpec, got map[string]measure) error {
	for _, spec := range list {
		m, ok := got[spec.Name]
		switch {
		case !ok:
			return fmt.Errorf("metric %s was not measured", spec.Name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return fmt.Errorf("metric %s is not a number (%s)", spec.Name, m.Note)
		case m.Value == 0 && !spec.ZeroOK:
			return fmt.Errorf("metric %s is zero: a section of the result was never filled", spec.Name)
		}
	}
	return nil
}

// print writes every metric by name with unit, sample count and bound.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed %d  %.0f s measured  trace %v  (%s, %d cpus, commit %s, timer overshoot %.0f µs)\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.Env.GoVersion, r.Env.NProc, r.Env.Commit, r.Env.TimerOvershootUS)
	for _, spec := range endToEnd {
		m := r.EndToEnd[spec.Name]
		scaled := ""
		if m.RefUS != 0 {
			scaled = fmt.Sprintf("  (raw %.4f, host at %.1f µs per reference unit)", m.Raw, m.RefUS)
		}
		fmt.Fprintf(w, "  %-22s %14.4f %-8s n=%-7d bound %.1f%%  iqr %.4g %s%s\n",
			spec.Name, m.Value, spec.Unit, m.Samples, spec.Bound*100, m.IQR, m.Note, scaled)
	}
	if r.Trace {
		for _, spec := range perLayer {
			m := r.PerLayer[spec.Name]
			fmt.Fprintf(w, "  %-34s %14.4f %-8s n=%d\n", spec.Name, m.Value, spec.Unit, m.Samples)
		}
		fmt.Fprintln(w, "  where a served request's time goes (self time = a layer's median minus the median of the layer it calls):")
		for _, row := range r.Ladder {
			fmt.Fprintf(w, "    %-28s %10.1f µs   %s\n", row.Layer, row.SelfUS, row.How)
		}
	}
	for _, p := range r.Phases {
		fmt.Fprintf(w, "  phase %-16s attempted %-7d failed %d\n", p.Phase, p.Attempted, p.Failed)
	}
	for _, c := range r.Checks {
		fmt.Fprintf(w, "  check %s\n", c)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note  %s\n", n)
	}
}

// contractLine is the last line of standard output: the one JSON object
// the driver reads.
func (r *result) contractLine() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	list, got := endToEnd, r.EndToEnd
	if r.Trace {
		list, got = perLayer, r.PerLayer
	}
	metrics := make(map[string]value, len(list))
	for _, spec := range list {
		metrics[spec.Name] = value{got[spec.Name].Value, spec.Unit}
	}
	attempted, failed := r.totals()
	blob, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, attempted, failed, metrics})
	if err != nil {
		panic(err) // finish() already refused NaN and Inf, the only values Marshal rejects
	}
	return string(blob)
}

func writeResults(path string, results []*result) error {
	blob, err := json.MarshalIndent(results, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

func readResults(path string) ([]*result, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []*result
	if err := json.Unmarshal(blob, &out); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

// worsening is how much worse b is than a, as a share of a, in the
// direction the metric counts as worse.
func worsening(spec metricSpec, a, b float64) float64 {
	if spec.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// agree compares two result files of the same commit, workload by
// workload: every end-to-end metric must differ by no more than its bound
// in either direction, and every exact count present in both must be
// identical. It prints each difference next to its bound and returns the
// number of violations.
func agree(w io.Writer, a, b []*result) int {
	violations := 0
	for _, ra := range a {
		var rb *result
		for _, cand := range b {
			if cand.Workload == ra.Workload {
				rb = cand
			}
		}
		if rb == nil {
			fmt.Fprintf(w, "%s: missing from the second file\n", ra.Workload)
			violations++
			continue
		}
		fmt.Fprintf(w, "%s (seeds %d, %d)\n", ra.Workload, ra.Seed, rb.Seed)
		for _, spec := range endToEnd {
			va, vb := ra.EndToEnd[spec.Name].Value, rb.EndToEnd[spec.Name].Value
			diff := math.Max(worsening(spec, va, vb), worsening(spec, vb, va))
			verdict := "ok"
			if diff > spec.Bound {
				verdict = "DISAGREE"
				violations++
			}
			fmt.Fprintf(w, "  %-22s %14.4f %14.4f  diff %6.2f%%  bound %5.1f%%  %s\n",
				spec.Name, va, vb, diff*100, spec.Bound*100, verdict)
		}
		for _, spec := range perLayer {
			ma, okA := ra.PerLayer[spec.Name]
			mb, okB := rb.PerLayer[spec.Name]
			if spec.Exact && okA && okB && ma.Value != mb.Value {
				fmt.Fprintf(w, "  exact count %s differs: %v vs %v\n", spec.Name, ma.Value, mb.Value)
				violations++
			}
		}
		if !ra.Correct || !rb.Correct {
			fmt.Fprintf(w, "  a run was not correct (%v, %v)\n", ra.Correct, rb.Correct)
			violations++
		}
	}
	return violations
}

// list prints every workload and metric without running anything.
func list(w io.Writer) {
	fmt.Fprintln(w, "workloads:")
	for _, wl := range workloads {
		fmt.Fprintf(w, "  %-16s focus %-12s %s\n", wl.Name, stageNames[wl.focus()], wl.Why)
	}
	fmt.Fprintln(w, "end-to-end metrics:")
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-22s %-9s better %-7s bound %5.1f%%  %s\n", m.Name, m.Unit, m.Better, m.Bound*100, m.Help)
	}
	fmt.Fprintln(w, "per-layer metrics (traced run):")
	for _, m := range perLayer {
		exact := ""
		if m.Exact {
			exact = "  exact at a fixed seed"
		}
		fmt.Fprintf(w, "  %-34s %-9s better %s%s\n", m.Name, m.Unit, m.Better, exact)
	}
}
