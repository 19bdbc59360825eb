package pushadminer_test

import (
	"fmt"
	"go/format"
	"maps"
	"slices"
	"strings"
	"testing"
	"time"

	"pushadminer/internal/chaos"
	"pushadminer/internal/core"
	"pushadminer/internal/telemetry"
	"pushadminer/internal/textmine"
	"pushadminer/internal/webeco"
)

// TestWorkCounts is the CI performance gate. It runs four small fixed
// workloads with a telemetry registry and an event ledger — a blocked
// batch clustering, an incremental stream that reclusters as it grows,
// a desktop study, and the same study under the "acceptance" fault
// profile (resets, 503s, a push outage) — and compares every work
// count they record (pairs computed, sweep cells scored, blocks built,
// requests sent, injected faults, retries, records emitted, and ledger
// events per kind) with workCounts. The
// counts are a function of the inputs alone, so the gate needs no
// tolerance: a quadratic path sneaking back in, a crawl that polls more
// than it did, or a ledger that drops an event moves a count by an
// exact amount on any machine. Wall time is measured by the benchmark
// (bench/).
//
// A change that moves the work on purpose replaces the table: on a
// mismatch the test prints each moved count and a ready-to-paste
// workCounts.
func TestWorkCounts(t *testing.T) {
	got := map[string]int64{}

	reg, led := telemetry.New(), telemetry.NewLedger()
	core.ClusterWPNs(synthFeatures(t, 11, 2000), core.ClusterOptions{Blocked: true, Metrics: reg, Ledger: led})
	addWorkCounts(got, "batch", reg.Snapshot())
	addLedgerCounts(got, "batch", led)

	reg, led = telemetry.New(), telemetry.NewLedger()
	fs := synthFeatures(t, 12, 1200)
	inc := core.NewIncrementalClusterer(fs, core.ClusterOptions{Blocked: true, Metrics: reg, Ledger: led})
	for i := range fs.Records {
		inc.Add(i)
		if (i+1)%200 == 0 {
			inc.Recluster()
		}
	}
	addWorkCounts(got, "stream", reg.Snapshot())
	addLedgerCounts(got, "stream", led)

	studyWorkCounts(t, got, "study", nil)
	faults, err := chaos.ParseProfile("acceptance")
	if err != nil {
		t.Fatal(err)
	}
	studyWorkCounts(t, got, "faults", faults)

	if maps.Equal(got, workCounts) {
		return
	}
	keys := maps.Clone(got)
	maps.Copy(keys, workCounts)
	var moved strings.Builder
	for _, k := range sortedKeys(keys) {
		if got[k] != workCounts[k] {
			fmt.Fprintf(&moved, "\t%s: %d -> %d\n", k, workCounts[k], got[k])
		}
	}
	t.Errorf("work counts moved (table -> this run):\n%s\nIf the change means to move them, replace workCounts with:\n\n%s",
		moved.String(), workCountsTable(t, got))
}

// studyWorkCounts runs the gate's desktop study under the fault
// profile prof (nil for none) and adds its counts under workload/.
func studyWorkCounts(t *testing.T, dst map[string]int64, workload string, prof *chaos.Profile) {
	t.Helper()
	reg, led := telemetry.New(), telemetry.NewLedger()
	study, err := core.RunStudy(core.StudyConfig{
		Eco:              webeco.Config{Seed: 11, Scale: 0.01, Chaos: prof},
		CollectionWindow: 7 * 24 * time.Hour,
		SkipMobile:       true,
		BatchWindow:      time.Hour,
		Metrics:          reg,
		Ledger:           led,
	})
	if err != nil {
		t.Fatal(err)
	}
	study.Close()
	addWorkCounts(dst, workload, reg.Snapshot())
	addLedgerCounts(dst, workload, led)
}

func synthFeatures(t *testing.T, seed int64, n int) *core.FeatureSet {
	t.Helper()
	fs, err := core.ExtractFeatures(core.SynthWPNRecords(seed, n), core.FeatureOptions{
		Word2Vec: textmine.Word2VecConfig{Seed: seed},
	})
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// addWorkCounts flattens the snapshot's work counts into dst under
// workload/: counters and gauges by name, histograms as name.count and
// name.sum, family members as name{label}. Zero counts are left out (a
// count missing from a table is zero). vnet_requests_by_host, which has
// a member per simulated host, enters as its host count and its sum.
func addWorkCounts(dst map[string]int64, workload string, s telemetry.Snapshot) {
	put := func(name, key string, v int64) {
		if v != 0 && isWorkCount(name, key) {
			dst[workload+"/"+key] = v
		}
	}
	for name, v := range s.Counters {
		put(name, name, v)
	}
	for name, v := range s.Gauges {
		put(name, name, v)
	}
	for name, h := range s.Histograms {
		put(name, name+".count", h.Count)
		put(name, name+".sum", int64(h.Sum))
	}
	for name, members := range s.Families {
		if name == "vnet_requests_by_host" {
			var sum int64
			for _, v := range members {
				sum += v
			}
			put(name, name+"{hosts}", int64(len(members)))
			put(name, name+"{sum}", sum)
			continue
		}
		for label, v := range members {
			put(name, name+"{"+label+"}", v)
		}
	}
}

// addLedgerCounts adds the number of ledger events of each kind under
// workload/ledger{kind}. The ledger is byte-stable at any GOMAXPROCS, so
// every kind is a work count.
func addLedgerCounts(dst map[string]int64, workload string, led *telemetry.Ledger) {
	for _, ev := range led.Events() {
		dst[workload+"/ledger{"+ev.Kind+"}"]++
	}
}

// isWorkCount reports whether the metric key (of metric name) repeats
// exactly run to run. Timings (_ns, _seconds) and memory readings
// (_bytes, mining_heap_*) do not. Nor do the blocked union phase's
// tallies, mining_pairs{blocks_*}: each worker's union forest skips the
// pairs it already connects, so they move with GOMAXPROCS;
// TestBlockedUnionCountsDeterministic holds them at fixed worker counts.
func isWorkCount(name, key string) bool {
	switch {
	case strings.HasSuffix(name, "_ns"), strings.HasSuffix(name, "_seconds"),
		strings.HasSuffix(name, "_bytes"), strings.HasPrefix(name, "mining_heap_"):
		return false
	case strings.HasPrefix(key, "mining_pairs{blocks_"):
		return false
	}
	return true
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// workCountsTable renders counts as a gofmt-ed workCounts declaration.
func workCountsTable(t *testing.T, counts map[string]int64) string {
	var b strings.Builder
	b.WriteString("var workCounts = map[string]int64{\n")
	for _, k := range sortedKeys(counts) {
		fmt.Fprintf(&b, "%q: %d,\n", k, counts[k])
	}
	b.WriteString("}\n")
	src, err := format.Source([]byte(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

// workCounts holds the gate's counts, keyed workload/metric; a count
// missing from the table is zero.
var workCounts = map[string]int64{
	"batch/cluster_pairs{exact}":                   23497,
	"batch/cluster_pairs{pruned}":                  1975503,
	"batch/ledger{block_clustered}":                633,
	"batch/ledger{cut_chosen}":                     1,
	"batch/ledger{height_swept}":                   64,
	"batch/ledger{stage_begin}":                    3,
	"batch/ledger{stage_end}":                      3,
	"batch/ledger{sweep_memo}":                     1,
	"batch/mining_block_size.count":                633,
	"batch/mining_block_size.sum":                  2000,
	"batch/mining_pairs{block_linkage_exact}":      23497,
	"batch/mining_pairs{sweep_memo_saved}":         810397,
	"batch/mining_pairs{sweep_scored}":             693411,
	"batch/mining_sweep_blocks{0.0-0.1}":           1074,
	"batch/mining_sweep_blocks{0.2-0.3}":           14,
	"batch/mining_sweep_blocks{0.3-0.4}":           15,
	"batch/mining_sweep_memo{hit}":                 39409,
	"batch/mining_sweep_memo{miss}":                1103,
	"faults/breaker_transitions{closed→open}":      1,
	"faults/breaker_transitions{half-open→closed}": 1,
	"faults/breaker_transitions{open→half-open}":   1,
	"faults/browser_nav_retries":                   180,
	"faults/browser_notifications_clicked":         217,
	"faults/browser_notifications_shown":           217,
	"faults/browser_redirect_hops.count":           1073,
	"faults/browser_redirect_hops.sum":             1105,
	"faults/chaos_faults{http_503}":                220,
	"faults/chaos_faults{outage_503}":              618,
	"faults/chaos_faults{reset}":                   126,
	"faults/cluster_pairs{exact}":                  13366,
	"faults/crawler_poll_failures":                 26,
	"faults/crawler_pump_batch_size.count":         7,
	"faults/crawler_pump_batch_size.sum":           462,
	"faults/crawler_pump_workers":                  32,
	"faults/crawler_records_emitted":               217,
	"faults/crawler_visit_retries":                 15,
	"faults/crawler_visits":                        901,
	"faults/fleet_events{merge}":                   6,
	"faults/fleet_events{shard_started}":           1,
	"faults/fleet_heartbeats":                      29,
	"faults/fleet_live_shards":                     1,
	"faults/fleet_shards":                          1,
	"faults/httpx_retries":                         104,
	"faults/httpx_retry_after_waits":               87,
	"faults/ledger{cut_chosen}":                    1,
	"faults/ledger{height_swept}":                  64,
	"faults/ledger{merge}":                         6,
	"faults/ledger{shard_started}":                 1,
	"faults/ledger{stage_begin}":                   8,
	"faults/ledger{stage_end}":                     8,
	"faults/ledger{sweep_memo}":                    1,
	"faults/mining_pairs{sweep_scored}":            855424,
	"faults/mining_sweep_blocks{0.0-0.1}":          7,
	"faults/mining_sweep_blocks{0.1-0.2}":          7,
	"faults/mining_sweep_blocks{0.2-0.3}":          27,
	"faults/mining_sweep_blocks{0.3-0.4}":          14,
	"faults/mining_sweep_blocks{0.4-0.5}":          4,
	"faults/mining_sweep_blocks{0.5-0.6}":          4,
	"faults/mining_sweep_blocks{0.6-0.7}":          1,
	"faults/mining_sweep_memo{miss}":               64,
	"faults/vnet_client_errors{conn}":              126,
	"faults/vnet_client_requests":                  3033,
	"faults/vnet_client_transport_errors":          126,
	"faults/vnet_injected_faults{http_503}":        220,
	"faults/vnet_injected_faults{outage_503}":      618,
	"faults/vnet_requests_by_host{hosts}":          949,
	"faults/vnet_requests_by_host{sum}":            3033,
	"faults/vnet_responses_by_class{2xx}":          2037,
	"faults/vnet_responses_by_class{3xx}":          32,
	"faults/vnet_responses_by_class{5xx}":          838,
	"stream/ledger{block_clustered}":               505,
	"stream/ledger{cut_chosen}":                    6,
	"stream/ledger{height_swept}":                  384,
	"stream/ledger{recluster}":                     6,
	"stream/ledger{sweep_memo}":                    6,
	"stream/mining_block_size.count":               505,
	"stream/mining_block_size.sum":                 3342,
	"stream/mining_pairs{block_linkage_exact}":     13821,
	"stream/mining_pairs{block_linkage_reused}":    20882,
	"stream/mining_pairs{sweep_memo_saved}":        1329218,
	"stream/mining_pairs{sweep_scored}":            7164862,
	"stream/mining_sweep_blocks{0.0-0.1}":          2141,
	"stream/mining_sweep_blocks{0.2-0.3}":          45,
	"stream/mining_sweep_blocks{0.3-0.4}":          27,
	"stream/mining_sweep_blocks{0.4-0.5}":          21,
	"stream/mining_sweep_blocks{0.6-0.7}":          2,
	"stream/mining_sweep_blocks{0.8-0.9}":          2,
	"stream/mining_sweep_memo{hit}":                69314,
	"stream/mining_sweep_memo{miss}":               2235,
	"stream/mining_sweep_memo{refresh}":            3,
	"study/browser_notifications_clicked":          217,
	"study/browser_notifications_shown":            217,
	"study/browser_redirect_hops.count":            1058,
	"study/browser_redirect_hops.sum":              1090,
	"study/cluster_pairs{exact}":                   13366,
	"study/crawler_pump_batch_size.count":          7,
	"study/crawler_pump_batch_size.sum":            462,
	"study/crawler_pump_workers":                   32,
	"study/crawler_records_emitted":                217,
	"study/crawler_visits":                         886,
	"study/fleet_events{merge}":                    7,
	"study/fleet_events{shard_started}":            1,
	"study/fleet_heartbeats":                       29,
	"study/fleet_live_shards":                      1,
	"study/fleet_shards":                           1,
	"study/ledger{cut_chosen}":                     1,
	"study/ledger{height_swept}":                   64,
	"study/ledger{merge}":                          7,
	"study/ledger{shard_started}":                  1,
	"study/ledger{stage_begin}":                    8,
	"study/ledger{stage_end}":                      8,
	"study/ledger{sweep_memo}":                     1,
	"study/mining_pairs{sweep_scored}":             855424,
	"study/mining_sweep_blocks{0.0-0.1}":           7,
	"study/mining_sweep_blocks{0.1-0.2}":           8,
	"study/mining_sweep_blocks{0.2-0.3}":           27,
	"study/mining_sweep_blocks{0.3-0.4}":           14,
	"study/mining_sweep_blocks{0.4-0.5}":           3,
	"study/mining_sweep_blocks{0.5-0.6}":           4,
	"study/mining_sweep_blocks{0.6-0.7}":           1,
	"study/mining_sweep_memo{miss}":                64,
	"study/vnet_client_requests":                   2094,
	"study/vnet_requests_by_host{hosts}":           949,
	"study/vnet_requests_by_host{sum}":             2094,
	"study/vnet_responses_by_class{2xx}":           2062,
	"study/vnet_responses_by_class{3xx}":           32,
}
