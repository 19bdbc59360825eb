// Command wpncrawl runs only PushAdMiner's data-collection module: it
// builds a synthetic ecosystem, runs the desktop and mobile WPN
// crawlers, and writes the collected notification records (plus the
// blocklist verdicts observed at crawl time) to a JSON file that
// cmd/wpnanalyze consumes.
//
// Usage:
//
//	wpncrawl -out wpns.json [-seed N] [-scale F] [-days N]
//	         [-chaos-profile P] [-pump-workers N] [-batch-window D]
//	         [-shards N] [-heartbeat D] [-max-restarts N] [-fleet-dir DIR]
//	         [-ledger PATH] [-debug-addr HOST:PORT] [-linger D]
//	         [-metrics-out PATH] [-trace-out PATH]
//
// -chaos-profile wraps the virtual network with the deterministic fault
// injector (internal/chaos): presets "mild", "acceptance", "harsh", or
// a comma-separated spec with k=v overrides, e.g.
// "acceptance,seed=7,resets=0.08,outage=72h:24h".
//
// Every crawl runs on the fleet (internal/fleet): a coordinator plus
// -shards N workers (<= 1 means one), each owning a disjoint container
// set, with heartbeat-based dead-worker detection, bounded
// restart-with-resume from durable state files (kept under -fleet-dir,
// or a private temp dir when "workercrashes=F" chaos can kill a
// worker), and work stealing. The output is byte-identical at any
// shard count, under any kill schedule. The crawl is deterministic, so
// a killed wpncrawl is simply run again: the rerun writes the same
// records an uninterrupted run would have.
//
// Observability: -debug-addr serves net/http/pprof, expvar, a live
// /metrics JSON snapshot, and the /fleetz fleet introspection view
// (cmd/wpnstat renders it as a dashboard) on a loopback listener while
// the crawl runs; -linger keeps that server up
// for the given duration after the crawl so the final state can still
// be scraped. -metrics-out writes the final telemetry snapshot (crawler
// counters, breaker transitions, chaos fault totals, per-host request
// counts) as JSON; -trace-out writes the per-notification attack-chain
// spans as JSONL, from which telemetry.Chains rebuilds the chains;
// -ledger writes the run's event ledger as one JSONL file: the desktop
// and then the mobile crawl's control-plane events (each with a
// "device" attr), then the mining events of the study's analysis pass.
// The ledger is byte-identical across reruns at a fixed seed and chaos
// plan.
package main

import (
	"flag"
	"log"
	"time"

	"pushadminer"
	"pushadminer/internal/chaos"
	"pushadminer/internal/core"
	"pushadminer/internal/telemetry"
)

func main() {
	var (
		seed       = flag.Int64("seed", 1, "ecosystem seed")
		scale      = flag.Float64("scale", 0.05, "fraction of paper-scale crawl")
		days       = flag.Int("days", 14, "collection window in simulated days")
		out        = flag.String("out", "wpns.json", "output JSON path")
		profile    = flag.String("chaos-profile", "", "fault-injection profile (mild|acceptance|harsh, with k=v overrides)")
		pumpW      = flag.Int("pump-workers", 0, "parallel monitor-phase workers (1 = serial reference path, <= 0 = container-pool size); output is identical at any setting")
		batchW     = flag.Duration("batch-window", 0, "coalesce monitor ticks: pump everything due within this window of the first due event as one batch (0 = exact per-event stepping)")
		shards     = flag.Int("shards", 0, "run each crawl as a fleet of this many shard workers (<= 1 = one worker); output is identical at any shard count")
		heartbeat  = flag.Duration("heartbeat", 0, "fleet liveness-check period in simulated time (0 = 6h default)")
		maxRestart = flag.Int("max-restarts", 0, "restart budget per shard worker before its containers are stolen (0 = default 2, negative = never restart)")
		fleetDir   = flag.String("fleet-dir", "", "directory for durable shard state files (default: private temp dir)")
		ledgerOut  = flag.String("ledger", "", "write the run's deterministic event ledger (crawl control plane, then mining) as JSONL to this path")
		debugAddr  = flag.String("debug-addr", "", "loopback addr serving /debug/pprof, /debug/vars, /metrics and /fleetz (e.g. 127.0.0.1:6060)")
		linger     = flag.Duration("linger", 0, "keep the debug server up this long after the crawl finishes")
		metricsOut = flag.String("metrics-out", "", "write final telemetry snapshot JSON to this path")
		traceOut   = flag.String("trace-out", "", "write attack-chain trace spans as JSONL to this path")
	)
	flag.Parse()

	prof, err := chaos.ParseProfile(*profile)
	if err != nil {
		log.Fatal(err)
	}

	var reg *telemetry.Registry
	if *debugAddr != "" || *metricsOut != "" {
		reg = telemetry.New()
	}
	var tracer *telemetry.Tracer
	if *traceOut != "" {
		tracer = telemetry.NewTracer(nil)
	}
	var ledger *telemetry.Ledger
	if *ledgerOut != "" {
		ledger = telemetry.NewLedger()
	}
	if *debugAddr != "" {
		reg.PublishExpvar("pushadminer")
		srv, err := telemetry.ServeDebug(*debugAddr, reg)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		log.Printf("debug server on http://%s (/debug/pprof, /debug/vars, /metrics, /fleetz)", srv.Addr())
	}

	start := time.Now()
	study, err := pushadminer.RunStudy(pushadminer.StudyConfig{
		Eco:              pushadminer.EcosystemConfig{Seed: *seed, Scale: *scale, Chaos: prof},
		CollectionWindow: time.Duration(*days) * 24 * time.Hour,
		PumpWorkers:      *pumpW,
		BatchWindow:      *batchW,
		Shards:           *shards,
		ShardHeartbeat:   *heartbeat,
		MaxShardRestarts: *maxRestart,
		FleetDir:         *fleetDir,
		Metrics:          reg,
		Tracer:           tracer,
		Ledger:           ledger,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer study.Close()

	export := core.ExportFromStudy(study)
	if err := core.SaveExport(*out, export); err != nil {
		log.Fatal(err)
	}
	log.Printf("crawled %d WPNs (%d desktop, %d mobile) in %s → %s",
		len(export.Records), len(study.Desktop.Records), mobileCount(study),
		time.Since(start).Round(time.Millisecond), *out)
	if deg := study.Desktop.Degradation; deg.Faults != nil || deg.ContainersLost > 0 {
		log.Printf("desktop degradation: %+v", deg)
	}
	for _, dev := range []string{"desktop", "mobile"} {
		if rep := study.FleetReports[dev]; rep != nil {
			log.Printf("%s fleet: shards=%d heartbeats=%d kills=%d restarts=%d lost=%d stolen=%d saves=%d fallbacks=%d",
				dev, rep.Shards, rep.Heartbeats, rep.Kills, rep.Restarts,
				rep.WorkersLost, rep.ContainersStolen, rep.StateSaves, rep.StateFallbacks)
			log.Printf("%s fleet plane: telemetry_pulls=%d stitched_spans=%d",
				dev, rep.TelemetryPulls, rep.StitchedSpans)
		}
	}
	if *metricsOut != "" {
		if err := reg.WriteSnapshotFile(*metricsOut); err != nil {
			log.Fatal(err)
		}
		log.Printf("telemetry snapshot → %s", *metricsOut)
	}
	if *traceOut != "" {
		if err := tracer.WriteTraceFile(*traceOut); err != nil {
			log.Fatal(err)
		}
		log.Printf("%d trace spans → %s", tracer.Len(), *traceOut)
	}
	if *ledgerOut != "" {
		if err := ledger.WriteFile(*ledgerOut); err != nil {
			log.Fatal(err)
		}
		log.Printf("%d ledger events → %s", len(ledger.Events()), *ledgerOut)
	}
	if *linger > 0 && *debugAddr != "" {
		log.Printf("lingering %s for debug scrapes", *linger)
		time.Sleep(*linger)
	}
}

func mobileCount(s *pushadminer.Study) int {
	if s.Mobile == nil {
		return 0
	}
	return len(s.Mobile.Records)
}
