// Package pushadminer is a from-scratch Go reproduction of PushAdMiner,
// the measurement system of "When Push Comes to Ads: Measuring the Rise
// of (Malicious) Push Advertising" (Subramani et al., ACM IMC 2020).
//
// PushAdMiner (1) registers for and collects web push notifications
// (WPNs) at scale with an instrumented browser and crawler, (2) clusters
// the collected messages into WPN ad campaigns, and (3) identifies
// malicious and suspicious campaigns via URL blocklists,
// guilty-by-association label propagation, and bipartite meta-clustering
// over landing domains.
//
// Because the paper's substrate — the live web of 2019 plus a patched
// Chromium build — cannot be reproduced offline, this library ships a
// synthetic web ecosystem (publisher sites, push ad networks, campaigns,
// malicious landing infrastructure, an FCM-style push service, and URL
// blocklist services) served to net/http clients by in-process
// dispatch to their handlers, plus a simulated instrumented browser.
// See DESIGN.md for the substitution table.
//
// Quick start:
//
//	study, err := pushadminer.RunStudy(pushadminer.StudyConfig{
//	    Eco: pushadminer.EcosystemConfig{Seed: 1, Scale: 0.05},
//	})
//	if err != nil { ... }
//	defer study.Close()
//	fmt.Println(pushadminer.Table3(study))
//
// The cmd/pushadminer CLI and the examples/ directory exercise the same
// API end to end.
package pushadminer

import (
	"context"

	"pushadminer/internal/core"
	"pushadminer/internal/crawler"
	"pushadminer/internal/report"
	"pushadminer/internal/webeco"
)

// Re-exported configuration and result types. The full pipeline lives in
// internal packages; this facade is the supported public surface.
type (
	// EcosystemConfig controls synthetic-web generation (scale, seed,
	// push timing, crash rates...).
	EcosystemConfig = webeco.Config
	// Ecosystem is the generated synthetic web.
	Ecosystem = webeco.Ecosystem

	// StudyConfig configures a full reproduction run.
	StudyConfig = core.StudyConfig
	// Study is a finished run: crawls, records, analysis, and helpers
	// for every table and figure.
	Study = core.Study
	// PipelineOptions tweaks the mining pipeline (feature/stage
	// ablations).
	PipelineOptions = core.PipelineOptions
	// Analysis is the mining pipeline's output.
	Analysis = core.Analysis
	// Report aggregates the headline counters (Tables 3–4).
	Report = core.Report

	// WPNRecord is one collected web push notification.
	WPNRecord = crawler.WPNRecord
	// CrawlResult is the output of one crawl.
	CrawlResult = crawler.Result

	// Table is a renderable result table.
	Table = report.Table

	// RevisitResult, PilotResult, DoublePermissionResult and
	// QuietUIResult are the follow-up experiments' outputs.
	RevisitResult          = core.RevisitResult
	PilotResult            = core.PilotResult
	DoublePermissionResult = core.DoublePermissionResult
	QuietUIResult          = core.QuietUIResult
)

// NewEcosystem generates and serves a synthetic web ecosystem.
func NewEcosystem(cfg EcosystemConfig) (*Ecosystem, error) { return webeco.New(cfg) }

// RunStudy builds an ecosystem, crawls it on desktop and mobile, and
// runs the full analysis pipeline.
func RunStudy(cfg StudyConfig) (*Study, error) { return core.RunStudy(cfg) }

// RunStudyContext is RunStudy with cancellation: cancelling ctx aborts
// the crawls at their next safe point.
func RunStudyContext(ctx context.Context, cfg StudyConfig) (*Study, error) {
	return core.RunStudyContext(ctx, cfg)
}

// RunPipeline runs only the data-analysis module over already-collected
// WPN records.
func RunPipeline(records []*WPNRecord, opts PipelineOptions) (*Analysis, error) {
	return core.RunPipeline(records, opts)
}

// Table and figure regenerators (paper artifact → renderable table).
var (
	Table1             = core.Table1
	Table2             = core.Table2
	Table3             = core.Table3
	Table4             = core.Table4
	Table5             = core.Table5
	Table6             = core.Table6
	Figure4Table       = core.Figure4Table
	Figure5Table       = core.Figure5Table
	Figure6Table       = core.Figure6Table
	CostTable          = core.CostTable
	EvalTable          = core.EvaluationTable
	DetectorTable      = core.DetectorTable
	ScamBreakdownTable = core.ScamBreakdownTable
	PilotCDFTable      = core.PilotCDFTable
	MetaClusterDOT     = core.MetaClusterDOT
)

// Campaigns summarizes every discovered ad campaign, largest first.
var Campaigns = core.Campaigns

// CampaignSummary describes one discovered WPN ad campaign.
type CampaignSummary = core.CampaignSummary

// Follow-up experiments and the future-work detector.
var (
	RunRevisit               = core.RunRevisit
	RunPilot                 = core.RunPilot
	RunDoublePermissionCheck = core.RunDoublePermissionCheck
	RunQuietUICheck          = core.RunQuietUICheck
	TrainDetector            = core.TrainDetector
	RunEvasionExperiment     = core.RunEvasionExperiment
	RunTrackingCheck         = core.RunTrackingCheck
)

// TrackingCheck is the §8 cross-session cookie-tracking verification.
type TrackingCheck = core.TrackingCheck

// EvasionExperiment contrasts crawls with operator domain-rotation off
// and on (§5.2's blocklist-evasion behaviour).
type EvasionExperiment = core.EvasionExperiment

// DetectorReport is the future-work detector's training/evaluation
// outcome.
type DetectorReport = core.DetectorReport
