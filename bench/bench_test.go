package main

import (
	"bytes"
	"errors"
	"math"
	"os"
	"testing"
	"time"

	"pushadminer/internal/crawler"
	"pushadminer/internal/telemetry"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{100000, 99.99}, {15000, 99.9}, {10000, 99.9}, {9999, 99}, {1000, 99},
		{999, 95}, {200, 95}, {199, 90}, {100, 90}, {40, 75}, {20, 50}, {19, 50}, {0, 50},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var ds []time.Duration
	for i := 1; i <= 1000; i++ {
		ds = append(ds, time.Duration(1001-i)) // descending: sorting is percentile's job
	}
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{50, 500}, {99, 990}, {99.9, 999}, {100, 1000}, {0, 1}} {
		if got := percentile(ds, c.p); got != c.want {
			t.Errorf("percentile(p%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), the rule the benchmark's spread is
// judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread = %v, want 1", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	span := func(a, b int) telemetry.Span { return telemetry.Span{Start: at(a), End: at(b)} }
	parent := span(0, 100)
	for _, c := range []struct {
		name     string
		children []telemetry.Span
		want     int
	}{
		{"none", nil, 100},
		{"disjoint", []telemetry.Span{span(10, 20), span(30, 50)}, 70},
		{"overlapping", []telemetry.Span{span(10, 30), span(20, 50)}, 60},
		{"nested", []telemetry.Span{span(10, 60), span(20, 30)}, 50},
		{"clipped", []telemetry.Span{span(-10, 10), span(90, 120)}, 80},
		{"outside", []telemetry.Span{span(150, 160)}, 100},
		{"covering", []telemetry.Span{span(0, 100), span(40, 60)}, 0},
	} {
		if got := selfTime(parent, c.children); got != time.Duration(c.want)*time.Millisecond {
			t.Errorf("%s: self time %v, want %dms", c.name, got, c.want)
		}
	}
}

func TestFailedShareArithmetic(t *testing.T) {
	res := &crawler.Result{
		SeedURLs: make([]string, 100),
		Records:  make([]*crawler.WPNRecord, 40),
		Degradation: crawler.Degradation{
			VisitFailures:        3,
			DroppedNotifications: 4,
			RecordsDroppedEst:    6,
			VisitRetries:         50, // retried and recovered: not a failure
		},
	}
	attempted, failed := crawlOps(res)
	if attempted != 150 || failed != 13 {
		t.Fatalf("crawlOps = %d attempted, %d failed; want 150, 13", attempted, failed)
	}
	lost := pushLosses(map[string]int{"push_sends_abandoned": 5, "push_queue_collapsed": 2, "push_send_retries": 90})
	if lost != 7 {
		t.Fatalf("pushLosses = %d, want 7", lost)
	}
}

func TestPairScoreArithmetic(t *testing.T) {
	// Truth: {0,1,2} share host a, {3,4} share b. Prediction: {0,1},
	// {2,3}, and record 4 unclustered.
	s := pairScore([]int{0, 0, 1, 1, -1}, []string{"a", "a", "a", "b", "b"})
	if s != (score{hits: 1, predicted: 2, actual: 4}) {
		t.Fatalf("pairScore = %+v, want 1 hit of 2 predicted, 4 actual", s)
	}
	if got, want := s.f1(), 1.0/3; math.Abs(got-want) > 1e-12 {
		t.Errorf("f1 = %v, want %v", got, want)
	}
	perfect := pairScore([]int{7, 7, 9}, []string{"x", "x", "y"})
	if perfect.f1() != 1 {
		t.Errorf("identical partitions: f1 = %v, want 1", perfect.f1())
	}
	if got := (score{}).f1(); got != 1 {
		t.Errorf("no positives anywhere: f1 = %v, want 1", got)
	}
	if got := (score{predicted: 3, actual: 2}).f1(); got != 0 {
		t.Errorf("no hits: f1 = %v, want 0", got)
	}
	pooled := score{1, 2, 4}.add(score{3, 3, 4})
	if pooled != (score{4, 5, 8}) {
		t.Errorf("pooled = %+v", pooled)
	}
	if w := worsening(100, 110, "lower"); math.Abs(w-0.1) > 1e-12 {
		t.Errorf("worsening lower = %v, want 0.1", w)
	}
	if w := worsening(0.9, 0.81, "higher"); math.Abs(w-0.1) > 1e-12 {
		t.Errorf("worsening higher = %v, want 0.1", w)
	}
}

func TestSpanJSONLRoundTrip(t *testing.T) {
	p := newProbe("study")
	crawl := p.start("crawl")
	poll := p.child("crawler.poll", crawl)
	p.end(poll)
	p.end(crawl)
	p.end(p.root)
	var buf bytes.Buffer
	if err := p.tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := telemetry.ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := p.tr.Spans()
	if len(got) != len(want) {
		t.Fatalf("read %d spans, wrote %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.ID != w.ID || g.Parent != w.Parent || g.Name != w.Name || !g.Start.Equal(w.Start) || !g.End.Equal(w.End) {
			t.Errorf("span %d: read %+v, wrote %+v", i, g, w)
		}
	}
	if got[2].Parent != got[1].ID || got[1].Parent != got[0].ID {
		t.Errorf("parent links lost: %+v", got)
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics
// the program reports in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	def, err := loadBenchmark("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(def.Workloads), len(workloads))
	}
	for i, w := range def.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q/%q, program %q/%q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(def.EndToEnd) != len(endToEnd) || len(def.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end and %d per-layer metrics, the program %d and %d",
			len(def.EndToEnd), len(def.PerLayer), len(endToEnd), len(perLayer))
	}
	var cal calibration
	if err := readJSON("calibration.json", &cal); err != nil {
		t.Fatal(err)
	}
	var setup, maxOther float64
	for i, m := range def.EndToEnd {
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
		if m.Bound != cal.Bounds[m.Name] {
			t.Errorf("%s: bound %v, calibration.json %v", m.Name, m.Bound, cal.Bounds[m.Name])
		}
		if m.Bound <= 0 || m.Bound > maxBound {
			t.Errorf("%s: bound %v outside (0, %v]", m.Name, m.Bound, maxBound)
		}
		if m.Name == "setup_s" {
			setup = m.Bound
		} else {
			maxOther = math.Max(maxOther, m.Bound)
		}
	}
	if setup < maxOther {
		t.Errorf("setup_s bound %v is not the largest (%v)", setup, maxOther)
	}
	for i, m := range def.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
}

func TestCompareSummaries(t *testing.T) {
	dir := t.TempDir()
	bench := `{"end_to_end": [
		{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
		{"name": "quality_f1", "unit": "ratio", "better": "higher", "bound": 0.05}]}`
	cal := `{"workloads": {"w": {"counts": {
		"crawler.ticks": {"exact": true}, "go.gc_cycles": {"exact": false}}}}}`
	summ := func(wall, quality, ticks, gc float64, digest string) *summary {
		return &summary{Workloads: map[string]*workloadSummary{"w": {
			Seeds:   []int64{11},
			Digests: []string{digest},
			Metrics: map[string]stat{"wall_s": {Median: wall}, "quality_f1": {Median: quality}},
			Layers:  map[string]value{"crawler.ticks": {Value: ticks}, "go.gc_cycles": {Value: gc}},
		}}}
	}
	benchPath, calPath, base := dir+"/BENCHMARK.json", dir+"/calibration.json", dir+"/base.json"
	if err := errors.Join(os.WriteFile(benchPath, []byte(bench), 0o644), os.WriteFile(calPath, []byte(cal), 0o644),
		writeJSON(base, summ(10, 0.9, 200, 40, "abc"))); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name string
		cur  *summary
		want int
	}{
		{"within bounds, nondeterministic count moved", summ(10.9, 0.86, 200, 41, "abc"), 0},
		{"slower beyond bound", summ(11.1, 0.9, 200, 40, "abc"), 1},
		{"quality dropped beyond bound", summ(10, 0.85, 200, 40, "abc"), 1},
		{"exact count moved", summ(10, 0.9, 201, 40, "abc"), 1},
		{"output changed", summ(10, 0.9, 200, 40, "abd"), 1},
	} {
		problems, err := compareSummaries(c.cur, base, benchPath, calPath)
		if err != nil {
			t.Fatal(err)
		}
		if len(problems) != c.want {
			t.Errorf("%s: problems %q, want %d", c.name, problems, c.want)
		}
	}
}

// TestSmoke runs every workload at tiny sizes with a traced repetition,
// so the untraced and traced paths (including the ShardWorker-driven
// study) must agree on every output. The fault study spends seconds
// waiting out real-time retry backoff whatever its size, so it runs
// untraced here; its traced path is the study's. The whole test takes
// about 7 s on 2 CPUs; it logs its time rather than failing on it,
// since a shared machine's speed varies.
func TestSmoke(t *testing.T) {
	start := time.Now()
	for _, w := range workloads {
		trace := w.name != "study-faults"
		rec, err := runOne(w, smokeSizes, 11, 0, trace, t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !rec.Result.Correct || rec.Reps != 1 || rec.Digest == "" {
			t.Errorf("%s: correct=%v reps=%d digest=%q problems=%v", w.name, rec.Result.Correct, rec.Reps, rec.Digest, rec.Problems)
		}
		want := endToEnd
		if trace {
			want = perLayer
		}
		for _, d := range want {
			if _, ok := rec.Result.Metrics[d.Name]; !ok {
				t.Errorf("%s: metric %s missing", w.name, d.Name)
			}
		}
		t.Logf("%s done at %v", w.name, time.Since(start).Round(time.Millisecond))
	}
}
