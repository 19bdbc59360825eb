// Command pushadminer runs the full PushAdMiner reproduction: it builds
// the synthetic web ecosystem, crawls it on desktop and mobile, mines
// the collected web push notifications for (malicious) ad campaigns, and
// prints any or all of the paper's tables and figures.
//
// Usage:
//
//	pushadminer [flags]
//
//	-seed N        ecosystem seed (default 1)
//	-scale F       fraction of the paper's crawl size, in (0, 1]
//	               (default 0.05); -scale paper is shorthand for 1.0
//	-days N        collection window in simulated days, at least 1
//	               (default 14)
//	-table LIST    comma-separated artifacts to print:
//	               1,2,3,4,5,6,f4,f5,f6,cost,eval,detector,scams,experiments,all
//	-format F      print the tables as text (default) or json
//	-blocked       mine with the sub-quadratic LSH-blocked clustering
//	               path (candidate pairs from the SimHash band index,
//	               exact clustering within connected-component blocks)
//	-quiet         suppress progress logging, including the periodic
//	               mining-progress lines; the live /miningz status is
//	               still published and served — quiet only silences
//	               what this process prints
//	-debug-addr A  loopback addr serving /debug/pprof, /debug/vars,
//	               a live /metrics JSON snapshot, and the /miningz
//	               mining status while the study runs
//	-metrics-out P write the final telemetry snapshot (crawler counters,
//	               mining stage wall-times, per-host request counts) to P
//	-trace-out P   write attack-chain + mining-stage spans as JSONL to P
//	-ledger P      write the run's event ledger as JSONL to P: each
//	               crawl's control-plane events, then the mining
//	               events (stage brackets, blocks, heights, the chosen
//	               cut); byte-stable across reruns at a fixed seed
//	-linger D      keep the process (and its debug server) alive for D
//	               after the run, so /miningz and /metrics can be
//	               scraped post-completion
//
// A bad -scale, -days, -table or -format exits 1 before the ecosystem
// is built.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"pushadminer"
	"pushadminer/internal/core"
	"pushadminer/internal/telemetry"
)

func main() {
	var (
		seed       = flag.Int64("seed", 1, "ecosystem seed")
		scaleStr   = flag.String("scale", "0.05", `fraction of paper-scale crawl ("paper" = 1.0)`)
		days       = flag.Int("days", 14, "collection window in simulated days")
		tables     = flag.String("table", "all", "artifacts to print ("+strings.Join(tableKeys, ",")+")")
		blocked    = flag.Bool("blocked", false, "use the sub-quadratic LSH-blocked clustering path")
		quiet      = flag.Bool("quiet", false, "suppress progress logging")
		format     = flag.String("format", "text", "output format: text or json")
		debugAddr  = flag.String("debug-addr", "", "loopback addr serving /debug/pprof, /debug/vars, /metrics and /miningz (e.g. 127.0.0.1:6060)")
		metricsOut = flag.String("metrics-out", "", "write final telemetry snapshot JSON to this path")
		traceOut   = flag.String("trace-out", "", "write trace spans as JSONL to this path")
		ledgerOut  = flag.String("ledger", "", "write the run's deterministic event ledger (crawl control plane, then mining) as JSONL to this path")
		linger     = flag.Duration("linger", 0, "keep the process (and debug server) alive this long after the run")
	)
	flag.Parse()

	scale, want, err := parseArgs(*scaleStr, *days, *tables, *format)
	if err != nil {
		log.Fatal(err)
	}
	logf := func(format string, args ...interface{}) {
		if !*quiet {
			log.Printf(format, args...)
		}
	}

	var reg *telemetry.Registry
	if *debugAddr != "" || *metricsOut != "" {
		reg = telemetry.New()
	}
	var tracer *telemetry.Tracer
	if *traceOut != "" {
		tracer = telemetry.NewTracer(nil)
	}
	if *debugAddr != "" {
		reg.PublishExpvar("pushadminer")
		srv, err := telemetry.ServeDebug(*debugAddr, reg)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		logf("debug server on http://%s (/debug/pprof, /debug/vars, /metrics, /miningz)", srv.Addr())
	}
	var ledger *telemetry.Ledger
	if *ledgerOut != "" {
		ledger = telemetry.NewLedger()
	}

	// Periodic mining-progress lines off the live /miningz status.
	// -quiet suppresses only the logging; the status itself is still
	// published (and served when -debug-addr is set).
	stopProgress := make(chan struct{})
	if !*quiet && (reg != nil || tracer != nil || ledger != nil) {
		go func() {
			tick := time.NewTicker(2 * time.Second)
			defer tick.Stop()
			for {
				select {
				case <-stopProgress:
					return
				case <-tick.C:
					if ms, _ := telemetry.Status("mining").(*core.MiningStatus); ms != nil && !ms.Done {
						log.Printf("mining: stage=%s blocks=%d/%d heights=%d/%d",
							ms.Stage, ms.BlocksDone, ms.BlocksTotal, ms.HeightsDone, ms.HeightsTotal)
					}
				}
			}
		}()
	}

	logf("building ecosystem (seed=%d scale=%.3f) and crawling %d simulated days...", *seed, scale, *days)
	start := time.Now()
	cfg := pushadminer.StudyConfig{
		Eco:              pushadminer.EcosystemConfig{Seed: *seed, Scale: scale},
		CollectionWindow: time.Duration(*days) * 24 * time.Hour,
		Metrics:          reg,
		Tracer:           tracer,
		Ledger:           ledger,
	}
	cfg.Pipeline.Cluster.Blocked = *blocked
	study, err := pushadminer.RunStudy(cfg)
	close(stopProgress)
	if err != nil {
		log.Fatal(err)
	}
	defer study.Close()
	logf("study complete in %s: %d WPNs collected, %d with valid landing pages",
		time.Since(start).Round(time.Millisecond),
		study.Analysis.Report.TotalCollected, study.Analysis.Report.ValidLanding)
	if *ledgerOut != "" {
		if err := ledger.WriteFile(*ledgerOut); err != nil {
			log.Fatal(err)
		}
		logf("%d ledger events → %s", len(ledger.Events()), *ledgerOut)
	}
	if *metricsOut != "" {
		if err := reg.WriteSnapshotFile(*metricsOut); err != nil {
			log.Fatal(err)
		}
		logf("telemetry snapshot → %s", *metricsOut)
	}
	if *traceOut != "" {
		if err := tracer.WriteTraceFile(*traceOut); err != nil {
			log.Fatal(err)
		}
		logf("%d trace spans → %s", tracer.Len(), *traceOut)
	}

	all := want["all"]
	show := func(key string, t *pushadminer.Table) {
		if !all && !want[key] {
			return
		}
		if *format == "json" {
			enc := json.NewEncoder(os.Stdout)
			if err := enc.Encode(t); err != nil {
				log.Fatal(err)
			}
			return
		}
		fmt.Println(t)
	}

	show("3", pushadminer.Table3(study))
	show("1", pushadminer.Table1(study))
	show("2", pushadminer.Table2(study))
	show("4", pushadminer.Table4(study))
	show("5", pushadminer.Table5(study))
	show("6", pushadminer.Table6(study))
	show("f4", pushadminer.Figure4Table(study))
	show("f5", pushadminer.Figure5Table(study))
	show("f6", pushadminer.Figure6Table(study))
	show("cost", pushadminer.CostTable(study))
	show("eval", pushadminer.EvalTable(study))
	show("detector", pushadminer.DetectorTable(study))
	show("scams", pushadminer.ScamBreakdownTable(study))

	if all || want["experiments"] {
		if err := printExperiments(study, *seed, scale, logf); err != nil {
			log.Fatal(err)
		}
	}
	_ = os.Stdout.Sync()
	if *linger > 0 {
		logf("lingering %s for debug scrapes...", *linger)
		time.Sleep(*linger)
	}
}

// tableKeys are the artifacts -table can name.
var tableKeys = []string{"1", "2", "3", "4", "5", "6", "f4", "f5", "f6", "cost", "eval", "detector", "scams", "experiments", "all"}

// parseArgs checks the flags that choose what to run and print: -scale
// a fraction in (0, 1] or "paper", -days at least 1, -table a
// comma-separated list of tableKeys (case and spaces ignored), -format
// text or json. It returns the scale and the set of artifacts to print.
func parseArgs(scaleStr string, days int, tables, format string) (float64, map[string]bool, error) {
	scale := 1.0
	if scaleStr != "paper" {
		v, err := strconv.ParseFloat(scaleStr, 64)
		if err != nil || !(v > 0 && v <= 1) {
			return 0, nil, fmt.Errorf("bad -scale %q: want a fraction in (0, 1] or \"paper\"", scaleStr)
		}
		scale = v
	}
	if days < 1 {
		return 0, nil, fmt.Errorf("bad -days %d: want at least 1", days)
	}
	want := map[string]bool{}
	for _, t := range strings.Split(tables, ",") {
		key := strings.TrimSpace(strings.ToLower(t))
		if !slices.Contains(tableKeys, key) {
			return 0, nil, fmt.Errorf("bad -table key %q: want a comma-separated list of %s", key, strings.Join(tableKeys, ","))
		}
		want[key] = true
	}
	if format != "text" && format != "json" {
		return 0, nil, fmt.Errorf("bad -format %q: want text or json", format)
	}
	return scale, want, nil
}

func printExperiments(study *pushadminer.Study, seed int64, scale float64, logf func(string, ...interface{})) error {
	logf("running follow-up experiments (revisit, double permission, quiet UI)...")

	rr, err := pushadminer.RunRevisit(study, 300, 30*24*time.Hour, 5*24*time.Hour)
	if err != nil {
		return err
	}
	fmt.Printf("Recent-measurements revisit (§6.3.3; paper: 300 sites, 35 senders, 305 WPNs, 198 ads, 48 malicious, 15 VT-flagged):\n")
	fmt.Printf("  revisited=%d senders=%d notifications=%d ads=%d malicious=%d vt-flagged=%d\n\n",
		rr.SitesRevisited, rr.SitesSending, rr.Notifications, rr.WPNAds, rr.MaliciousAds, rr.VTFlagged)

	dp, err := pushadminer.RunDoublePermissionCheck(seed+1, scale/4, 0.25, 200)
	if err != nil {
		return err
	}
	fmt.Printf("Double permission (§8; paper: 49 of 200): %d of %d sites use a JS pre-prompt\n\n",
		dp.DoublePermission, dp.Checked)

	q, err := pushadminer.RunQuietUICheck(study, 300)
	if err != nil {
		return err
	}
	fmt.Printf("Chrome quiet-UI revisit (§6.4; paper: all still prompt): %d of %d revisited sites still prompted\n\n",
		q.StillPrompted, q.Revisited)

	exp, err := pushadminer.RunEvasionExperiment(seed+2, scale/4)
	if err != nil {
		return err
	}
	fmt.Println(exp.Table())

	tc, err := pushadminer.RunTrackingCheck(seed, scale/4)
	if err != nil {
		return err
	}
	fmt.Println(tc.Table())
	return nil
}
