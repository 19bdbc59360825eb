// Command bench is the repository's benchmark. It runs four workloads
// through the program's public calls, checks their outputs, and reports
// end-to-end metrics (tracing off) or per-layer metrics (one traced
// repetition). See README.md.
//
// One workload in this process, result as JSON on the last stdout line:
//
//	bash bench/run.sh --workload study --seed 11 --seconds 30 --trace 0
//
// A suite, every run in a fresh child process, medians and quartiles:
//
//	bash bench/run.sh -workloads all -seed 11 -reps 5 -out .bench_build/suite
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	var (
		workload  = flag.String("workload", "", "run one workload in this process and print its result as JSON")
		suite     = flag.String("workloads", "", `run a suite of workloads ("all" or a comma-separated list), each run in a fresh child process`)
		seed      = flag.Int64("seed", 11, "input seed (11 calibrates, 23 is held out for checking claims)")
		seconds   = flag.Float64("seconds", 30, "measuring time of one run")
		trace     = flag.Int("trace", 0, "1: add one traced repetition and report per-layer metrics")
		reps      = flag.Int("reps", 5, "suite: untraced runs per workload")
		out       = flag.String("out", ".bench_build/out", "directory for trace files and suite results")
		detail    = flag.String("detail", "", "write this run's full record as JSON to this file")
		calibrate = flag.Bool("calibrate", false, "suite: run each workload -reps times and twice traced at -seed and once at each of the next -seeds seeds, and write bounds into BENCHMARK.json and statistics into -calibration")
		seeds     = flag.Int("seeds", 10, "calibration: how many further seeds to run once each")
		against   = flag.String("against", "", "suite: compare with an earlier suite's summary.json; exit non-zero if a median is worse than its bound or a digest or exact count differs")
		benchJSON = flag.String("benchmark", "BENCHMARK.json", "the benchmark definition holding each end-to-end metric's bound")
		calib     = flag.String("calibration", "bench/calibration.json", "calibration statistics and count repeatability tags")
	)
	flag.Parse()

	var err error
	switch {
	case *workload != "":
		err = runWorkload(*workload, *seed, *seconds, *trace == 1, *out, *detail)
	case *suite != "":
		names := selectWorkloads(*suite)
		if names == nil {
			err = fmt.Errorf("unknown workload in %q", *suite)
			break
		}
		cfg := suiteConfig{names: names, seed: *seed, reps: *reps, seconds: *seconds, out: *out}
		if *calibrate {
			err = runCalibration(cfg, *seeds, *benchJSON, *calib)
		} else {
			err = runSuiteCommand(cfg, *against, *benchJSON, *calib)
		}
	default:
		err = errors.New("give -workload NAME or -workloads all")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func selectWorkloads(spec string) []string {
	if spec == "all" {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		return names
	}
	names := strings.Split(spec, ",")
	for _, n := range names {
		if workloadByName(n) == nil {
			return nil
		}
	}
	return names
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is a run's full record, read back by the suite.
type runRecord struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Trace    bool        `json:"trace"`
	Reps     int         `json:"reps"`
	Digest   string      `json:"digest"`
	Walls    [][]float64 `json:"walls"` // each input's timed repetitions' wall_s
	Problems []string    `json:"problems,omitempty"`
	Result   result      `json:"result"`
}

// runWorkload runs one workload, prints the result and exits non-zero if
// any output check failed.
func runWorkload(name string, seed int64, seconds float64, trace bool, out, detail string) error {
	w := workloadByName(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	rec, err := runOne(w, fullSizes, seed, time.Duration(seconds*float64(time.Second)), trace, out)
	if err != nil {
		return err
	}
	if detail != "" {
		if err := writeJSON(detail, rec); err != nil {
			return err
		}
	}
	printRun(os.Stderr, rec)
	line, err := json.Marshal(rec.Result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rec.Result.Correct {
		return fmt.Errorf("%s: output checks failed: %s", name, strings.Join(rec.Problems, "; "))
	}
	return nil
}

// minSetups is the least number of set-ups a run makes; setup_s is
// their median.
const minSetups = 3

// runOne derives z.inputs inputs from the seed (one when tracing) and
// sets them up in turn, at least once each and minSetups times in all.
// Then, until the next repetition would overrun the budget (which
// counts the set-up), it repeats the workload untraced, cycling through
// the inputs, at least once on each, and checks every output: all
// repetitions of an input must agree, and verify must pass on the
// first. Between repetitions it sets up the next input again while
// set-up has taken less than z.setupShare of the run, so that setup_s,
// the median set-up, samples the whole run rather than its first
// moments. Timings are each input's median, averaged over the inputs;
// scores and failures are pooled. With trace it runs one untraced
// repetition instead, then a traced one, reports per-layer metrics
// instead of end-to-end ones, and writes the spans and the registry
// snapshot under out/trace.
func runOne(w *workload, z sizes, seed int64, budget time.Duration, trace bool, out string) (runRecord, error) {
	rec := runRecord{Workload: w.name, Seed: seed, Trace: trace}
	began := time.Now()
	states := make([]*state, z.inputs)
	if trace {
		states = states[:1]
	}
	var (
		setups    []float64
		setupTime time.Duration
	)
	setUp := func(k int) error {
		states[k] = nil
		runtime.GC()
		t := time.Now()
		s, err := w.setup(z, inputSeed(seed, k))
		if err != nil {
			return fmt.Errorf("%s set-up: %w", w.name, err)
		}
		d := time.Since(t)
		setups = append(setups, d.Seconds())
		setupTime += d
		states[k] = s
		return nil
	}
	for i := 0; i < len(states) || len(setups) < minSetups; i++ {
		if err := setUp(i % len(states)); err != nil {
			return rec, err
		}
	}

	var (
		digests           = make([]string, len(states))
		walls, peaks      = make([][]float64, len(states)), make([][]float64, len(states))
		sc                score
		attempted, failed int
	)
	for i := 0; ; i++ {
		k := i % len(states)
		resetPeakRSS()
		t := time.Now()
		o, err := w.run(z, states[k], nil)
		if err != nil {
			rec.Result.Attempted++
			rec.Result.Failed++
			rec.Problems = append(rec.Problems, err.Error())
			break
		}
		peaks[k] = append(peaks[k], peakRSSMB())
		if i == k {
			digests[k] = o.digest
			sc = sc.add(o.score)
			attempted += o.attempted
			failed += o.failed
			if w.verify != nil && k == 0 {
				if err := w.verify(states[k], o); err != nil {
					rec.Problems = append(rec.Problems, err.Error())
				}
			}
		} else if o.digest != digests[k] {
			rec.Problems = append(rec.Problems, fmt.Sprintf("input %d repetition %d: output %s differs from %s", k, i/len(states)+1, o.digest, digests[k]))
		}
		rec.Reps++
		rec.Result.Attempted++
		walls[k] = append(walls[k], o.wall.Seconds())
		if i+1 >= len(states) && (trace || time.Since(began)+time.Since(t) > budget) {
			break
		}
		for next := (i + 1) % len(states); setupTime.Seconds() < z.setupShare*time.Since(began).Seconds(); {
			if err := setUp(next); err != nil {
				return rec, err
			}
		}
	}
	rec.Walls = walls
	rec.Digest = digestOf(digests)
	metrics := map[string]float64{
		"setup_s":       median(setups),
		"wall_s":        inputMean(walls),
		"peak_rss_mb":   inputMean(peaks),
		"success_share": 1,
		"quality_f1":    sc.f1(),
	}
	if attempted > 0 {
		metrics["success_share"] = 1 - float64(failed)/float64(attempted)
	}
	defs := endToEnd

	if trace && rec.Reps > 0 {
		layers, n, err := tracedRep(w, z, states[0], digests[0], median(walls[0]), out)
		if err != nil {
			rec.Problems = append(rec.Problems, err.Error())
		}
		rec.Result.Attempted += n
		metrics, defs = layers, perLayer
	}

	rec.Result.Correct = len(rec.Problems) == 0 && rec.Reps >= len(states)
	rec.Result.Metrics = make(map[string]value, len(defs))
	for _, d := range defs {
		rec.Result.Metrics[d.Name] = value{Value: metrics[d.Name], Unit: d.Unit}
	}
	return rec, nil
}

// digestOf combines the inputs' output digests into the run's.
func digestOf(digests []string) string {
	h := sha256.Sum256([]byte(strings.Join(digests, ",")))
	return hex.EncodeToString(h[:])[:16]
}

// tracedRep runs one traced repetition, checks its output against the
// untraced digest, and returns its per-layer metrics and the number of
// repetitions it ran. Its overhead is measured against untracedWall, or,
// for a workload with its own traced path, against an untraced pass of
// that path run just before.
func tracedRep(w *workload, z sizes, st *state, digest string, untracedWall float64, out string) (map[string]float64, int, error) {
	ran := 0
	if w.tracedPath {
		o, err := w.run(z, st, &probe{})
		ran++
		if err != nil {
			return nil, ran, err
		}
		if o.digest != digest {
			return nil, ran, fmt.Errorf("untraced pass of the traced path: output %s differs from %s", o.digest, digest)
		}
		untracedWall = o.wall.Seconds()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p := newProbe(w.name)
	o, err := w.run(z, st, p)
	p.end(p.root)
	runtime.ReadMemStats(&after)
	ran++
	if err != nil {
		return nil, ran, err
	}
	layers := o.layers
	layers["go.gc_cycles"] = float64(after.NumGC - before.NumGC)
	layers["go.gc_pause_s"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e9
	layers["go.alloc_bytes"] = float64(after.TotalAlloc - before.TotalAlloc)
	layers["trace_overhead_s"] = o.wall.Seconds() - untracedWall

	dir := filepath.Join(out, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return layers, ran, err
	}
	if err := p.tr.WriteTraceFile(filepath.Join(dir, w.name+".spans.jsonl")); err != nil {
		return layers, ran, err
	}
	if err := p.reg.WriteSnapshotFile(filepath.Join(dir, w.name+".metrics.json")); err != nil {
		return layers, ran, err
	}
	if o.digest != digest {
		return layers, ran, fmt.Errorf("traced output %s differs from untraced %s", o.digest, digest)
	}
	return layers, ran, nil
}

func printRun(f *os.File, rec runRecord) {
	fmt.Fprintf(f, "%s seed=%d reps=%d digest=%s correct=%v\n", rec.Workload, rec.Seed, rec.Reps, rec.Digest, rec.Result.Correct)
	for _, n := range sortedKeys(rec.Result.Metrics) {
		v := rec.Result.Metrics[n]
		fmt.Fprintf(f, "  %-32s %14.6g %s\n", n, v.Value, v.Unit)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
