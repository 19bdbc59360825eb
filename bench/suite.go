package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// suiteConfig is a suite invocation: workloads, first seed, untraced
// runs per workload, and each run's measuring time.
type suiteConfig struct {
	names   []string
	seed    int64
	reps    int
	seconds float64
	out     string
}

// stat summarizes one end-to-end metric over a suite's runs.
type stat struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Spread float64 `json:"spread"`
	Unit   string  `json:"unit"`
}

type workloadSummary struct {
	Seeds    []int64          `json:"seeds"`
	Digests  []string         `json:"digests"`
	Metrics  map[string]stat  `json:"metrics"`
	Layers   map[string]value `json:"layers"`
	Problems []string         `json:"problems,omitempty"`
}

type summary struct {
	Reps      int                         `json:"reps"`
	Seconds   float64                     `json:"seconds"`
	Workloads map[string]*workloadSummary `json:"workloads"`
}

// child runs one workload in a fresh process of this binary and reads
// back its record.
func (c suiteConfig) child(name string, seed int64, trace bool, detail string) (runRecord, error) {
	var rec runRecord
	exe, err := os.Executable()
	if err != nil {
		return rec, err
	}
	tr := "0"
	if trace {
		tr = "1"
	}
	// A stale record must not pass for this run's.
	if err := os.Remove(detail); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return rec, err
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(c.seconds, 'g', -1, 64), "-trace", tr,
		"-out", c.out, "-detail", detail)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	b, err := os.ReadFile(detail)
	if err != nil {
		return rec, fmt.Errorf("%s seed %d: %v (no record: %v)", name, seed, runErr, err)
	}
	if err := json.Unmarshal(b, &rec); err != nil {
		return rec, fmt.Errorf("%s seed %d: %w", name, seed, err)
	}
	return rec, nil
}

// runSuite runs every workload reps times untraced, at seeds seed,
// seed+seedStep, ..., then traced times traced at seed. With seedStep 0
// every untraced run must produce the same output digest (a traced run
// checks its own against an untraced repetition of the same input).
func runSuite(c suiteConfig, seedStep int64, traced int) (*summary, map[string][]runRecord, error) {
	s := &summary{Reps: c.reps, Seconds: c.seconds, Workloads: map[string]*workloadSummary{}}
	tracedRecs := map[string][]runRecord{}
	for _, name := range c.names {
		ws := &workloadSummary{Metrics: map[string]stat{}}
		s.Workloads[name] = ws
		var recs []runRecord
		for i := 0; i < c.reps; i++ {
			seed := c.seed + int64(i)*seedStep
			rec, err := c.child(name, seed, false, filepath.Join(c.out, "runs", fmt.Sprintf("%s-%d.json", name, i)))
			if err != nil {
				return s, tracedRecs, err
			}
			recs = append(recs, rec)
			ws.Seeds = append(ws.Seeds, seed)
			ws.Digests = append(ws.Digests, rec.Digest)
			ws.Problems = append(ws.Problems, rec.Problems...)
		}
		for _, d := range endToEnd {
			var xs []float64
			for _, r := range recs {
				xs = append(xs, r.Result.Metrics[d.Name].Value)
			}
			q1, q3 := quartiles(xs)
			ws.Metrics[d.Name] = stat{Median: median(xs), Q1: q1, Q3: q3, Spread: spread(xs), Unit: d.Unit}
		}
		for i := 0; i < traced; i++ {
			rec, err := c.child(name, c.seed, true, filepath.Join(c.out, "runs", fmt.Sprintf("%s-trace-%d.json", name, i)))
			if err != nil {
				return s, tracedRecs, err
			}
			tracedRecs[name] = append(tracedRecs[name], rec)
			ws.Layers = rec.Result.Metrics
			ws.Problems = append(ws.Problems, rec.Problems...)
		}
		if seedStep == 0 {
			for _, d := range ws.Digests {
				if d != ws.Digests[0] {
					ws.Problems = append(ws.Problems, fmt.Sprintf("output digests differ across runs: %v", ws.Digests))
					break
				}
			}
		}
	}
	return s, tracedRecs, nil
}

func (s *summary) problems() []string {
	var out []string
	for _, name := range sortedKeys(s.Workloads) {
		for _, p := range s.Workloads[name].Problems {
			out = append(out, name+": "+p)
		}
	}
	return out
}

func (s *summary) print() {
	for _, name := range sortedKeys(s.Workloads) {
		ws := s.Workloads[name]
		fmt.Printf("%s (runs %d, seeds %v)\n", name, len(ws.Seeds), ws.Seeds)
		for _, d := range endToEnd {
			st := ws.Metrics[d.Name]
			fmt.Printf("  %-16s %12.6g %-6s [q1 %.6g, q3 %.6g] spread %.2f%%\n",
				d.Name, st.Median, st.Unit, st.Q1, st.Q3, 100*st.Spread)
		}
		if tr := ws.Layers["trace_overhead_s"]; len(ws.Layers) > 0 {
			fmt.Printf("  traced run: %d per-layer metrics, trace_overhead_s %.4g\n", len(ws.Layers), tr.Value)
		}
	}
}

// runSuiteCommand runs the suite at one seed, prints and saves its
// summary, and fails on any output check or, given an earlier summary,
// on any regression beyond the benchmark's bounds.
func runSuiteCommand(c suiteConfig, against, benchPath, calibPath string) error {
	s, _, err := runSuite(c, 0, 1)
	if err != nil {
		return err
	}
	s.print()
	if err := writeJSON(filepath.Join(c.out, "summary.json"), s); err != nil {
		return err
	}
	problems := s.problems()
	if against != "" {
		more, err := compareSummaries(s, against, benchPath, calibPath)
		if err != nil {
			return err
		}
		problems = append(problems, more...)
	}
	if len(problems) > 0 {
		return fmt.Errorf("%d checks failed:\n  %s", len(problems), strings.Join(problems, "\n  "))
	}
	return nil
}

// compareSummaries holds s against the baseline summary at path: each
// end-to-end median may be worse than the baseline's by at most its
// bound; output digests and every count tagged exact must be equal.
func compareSummaries(s *summary, path, benchPath, calibPath string) ([]string, error) {
	var base summary
	if err := readJSON(path, &base); err != nil {
		return nil, err
	}
	def, err := loadBenchmark(benchPath)
	if err != nil {
		return nil, err
	}
	var cal calibration
	if err := readJSON(calibPath, &cal); err != nil {
		return nil, err
	}
	var problems []string
	for _, name := range sortedKeys(s.Workloads) {
		cur, old := s.Workloads[name], base.Workloads[name]
		if old == nil {
			continue
		}
		for _, m := range def.EndToEnd {
			a, b := old.Metrics[m.Name].Median, cur.Metrics[m.Name].Median
			if w := worsening(a, b, m.Better); w > m.Bound {
				problems = append(problems, fmt.Sprintf("%s %s: median %.6g vs %.6g is %.1f%% worse (bound %.1f%%)",
					name, m.Name, b, a, 100*w, 100*m.Bound))
			}
		}
		if len(old.Digests) > 0 && len(cur.Digests) > 0 && old.Seeds[0] == cur.Seeds[0] && old.Digests[0] != cur.Digests[0] {
			problems = append(problems, fmt.Sprintf("%s: output digest %s vs %s", name, cur.Digests[0], old.Digests[0]))
		}
		if cw := cal.Workloads[name]; cw != nil {
			for _, m := range sortedKeys(cw.Counts) {
				if cw.Counts[m].Exact && cur.Layers[m].Value != old.Layers[m].Value {
					problems = append(problems, fmt.Sprintf("%s %s: exact count %v vs %v", name, m, cur.Layers[m].Value, old.Layers[m].Value))
				}
			}
		}
	}
	return problems, nil
}

// worsening is how much worse b is than a, as a share of a (0 or less
// when b is no worse).
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// calibration is what -calibrate writes: each end-to-end metric's
// statistics over the calibration runs and its bound, and each
// per-layer count's values with whether they repeated exactly across
// two traced runs.
type calibration struct {
	Seed    int64              `json:"seed"`
	Reps    int                `json:"reps"`  // runs at Seed
	Seeds   []int64            `json:"seeds"` // one run at each
	Seconds float64            `json:"seconds"`
	Bounds  map[string]float64 `json:"bounds"`
	// Unresolved lists each metric and workload whose spread is over
	// maxSpread; the metric's bound is left as it was.
	Unresolved []string                       `json:"unresolved,omitempty"`
	Workloads  map[string]*calibratedWorkload `json:"workloads"`
}

type calibratedWorkload struct {
	RunToRun   map[string]stat       `json:"run_to_run"`
	SeedToSeed map[string]stat       `json:"seed_to_seed"`
	Counts     map[string]countCheck `json:"counts"`
}

type countCheck struct {
	Values []float64 `json:"values"`
	Exact  bool      `json:"exact"`
}

// Calibration limits. A metric's spread on a workload is the larger of
// its run-to-run spread, over runs at the calibration seed, which a
// comparison at one seed must see through, and its seed-to-seed spread,
// one run at each of as many other seeds, which a comparison over a set
// of seeds must. Its bound is three times its largest spread on any
// workload, at least minBound and at most maxBound: a set of ten seeds
// can spread well past the calibration's estimate (study-faults'
// quality_f1 spread 6.3 % in calibration and 11.5 % over seeds 101–110).
// A metric whose spread exceeds maxSpread keeps its bound and is
// reported unresolved: that workload needs more work per run, not a
// wider bound. Times (set-up and wall) take maxBound whatever their
// spread: the machine's speed drifts between sittings by more than one
// sitting shows (two sets of ten mine-batch runs an hour apart had
// medians of 4.45 s and 3.22 s, while one calibration saw every wall_s
// spread under 10 %).
const (
	minBound  = 0.03
	maxSpread = 0.10
	maxBound  = 0.25
)

// runCalibration runs each workload reps times at the calibration seed,
// twice traced there, and once at each of the next seeds. It writes the
// statistics and count tags to calibPath and each end-to-end metric's
// bound to benchPath, except for unresolved metrics, which it lists in
// its error.
func runCalibration(c suiteConfig, seeds int, benchPath, calibPath string) error {
	def, err := loadBenchmark(benchPath)
	if err != nil {
		return err
	}
	fixed, traced, err := runSuite(c, 0, 2)
	if err != nil {
		return err
	}
	fmt.Println("run to run:")
	fixed.print()
	other := c
	other.seed, other.reps, other.out = c.seed+1, seeds, filepath.Join(c.out, "seeds")
	varied, _, err := runSuite(other, 1, 0)
	if err != nil {
		return err
	}
	fmt.Println("seed to seed:")
	varied.print()
	if p := append(fixed.problems(), varied.problems()...); len(p) > 0 {
		return fmt.Errorf("output checks failed:\n  %s", strings.Join(p, "\n  "))
	}

	cal := calibration{Seed: c.seed, Reps: c.reps, Seconds: c.seconds,
		Bounds: map[string]float64{}, Workloads: map[string]*calibratedWorkload{}}
	for i := 0; i < seeds; i++ {
		cal.Seeds = append(cal.Seeds, other.seed+int64(i))
	}
	spreads := map[string]float64{}
	for _, name := range c.names {
		cw := &calibratedWorkload{RunToRun: fixed.Workloads[name].Metrics, SeedToSeed: varied.Workloads[name].Metrics,
			Counts: map[string]countCheck{}}
		cal.Workloads[name] = cw
		for _, d := range endToEnd {
			if d.Name == "setup_s" {
				continue
			}
			sp := math.Max(cw.RunToRun[d.Name].Spread, cw.SeedToSeed[d.Name].Spread)
			spreads[d.Name] = math.Max(spreads[d.Name], sp)
			if sp > maxSpread {
				cal.Unresolved = append(cal.Unresolved, fmt.Sprintf("%s on %s: spread %.1f%%", d.Name, name, 100*sp))
			}
		}
		runs := traced[name]
		for _, d := range perLayer {
			if d.Unit != "count" {
				continue
			}
			// The garbage collector's pacer reacts to allocation timing,
			// so its cycle count can agree across two runs by chance
			// without being repeatable.
			cc := countCheck{Exact: d.Name != "go.gc_cycles"}
			for _, r := range runs {
				v := r.Result.Metrics[d.Name].Value
				cc.Exact = cc.Exact && v == runs[0].Result.Metrics[d.Name].Value
				cc.Values = append(cc.Values, v)
			}
			cw.Counts[d.Name] = cc
		}
	}
	for i, m := range def.EndToEnd {
		b := maxBound
		if m.Unit != "s" {
			if spreads[m.Name] > maxSpread {
				cal.Bounds[m.Name] = m.Bound
				continue
			}
			b = math.Min(maxBound, math.Max(minBound, 3*spreads[m.Name]))
		}
		b = math.Ceil(b*100) / 100
		def.EndToEnd[i].Bound, cal.Bounds[m.Name] = b, b
	}
	if err := writeJSON(calibPath, cal); err != nil {
		return err
	}
	if err := writeJSON(benchPath, def); err != nil {
		return err
	}
	if len(cal.Unresolved) > 0 {
		return fmt.Errorf("bounds left unchanged, spread over %.0f%% (lengthen the workload instead of widening the bound):\n  %s",
			100*maxSpread, strings.Join(cal.Unresolved, "\n  "))
	}
	return nil
}

// benchmarkDef is BENCHMARK.json, field order preserved on rewrite.
type benchmarkDef struct {
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

func loadBenchmark(path string) (*benchmarkDef, error) {
	var def benchmarkDef
	if err := readJSON(path, &def); err != nil {
		return nil, err
	}
	return &def, nil
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
