package main

import (
	"time"

	"pushadminer/internal/telemetry"
)

// probe is what a traced repetition records into: the benchmark's own
// spans around each public call, and the registry attached to the
// program. A nil *probe selects a workload's timed code path; a zero
// probe (off) selects the traced code path without recording anything,
// so the tracing overhead can be measured on the same path.
type probe struct {
	tr   *telemetry.Tracer
	reg  *telemetry.Registry
	root telemetry.SpanID
}

// newProbe starts a traced repetition under a root span named after the
// workload.
func newProbe(workload string) *probe {
	p := &probe{tr: telemetry.NewTracer(time.Now), reg: telemetry.New()}
	p.root = p.tr.Start("", workload, 0, nil)
	return p
}

// on reports whether p records.
func (p *probe) on() bool { return p != nil && p.tr != nil }

// start opens a span under the repetition's root span.
func (p *probe) start(name string) telemetry.SpanID {
	if !p.on() {
		return 0
	}
	return p.child(name, p.root)
}

// child opens a span under parent.
func (p *probe) child(name string, parent telemetry.SpanID) telemetry.SpanID {
	if !p.on() {
		return 0
	}
	return p.tr.Start("", name, parent, nil)
}

func (p *probe) end(id telemetry.SpanID) {
	if p.on() {
		p.tr.End(id)
	}
}

// total sums the durations of every span with the given name.
func (p *probe) total(name string) time.Duration {
	var d time.Duration
	for _, sp := range p.tr.Spans() {
		if sp.Name == name {
			d += sp.Duration()
		}
	}
	return d
}

// selfTotal sums the self time of every span with the given name.
func (p *probe) selfTotal(name string) time.Duration {
	spans := p.tr.Spans()
	kids := map[telemetry.SpanID][]telemetry.Span{}
	for _, sp := range spans {
		kids[sp.Parent] = append(kids[sp.Parent], sp)
	}
	var d time.Duration
	for _, sp := range spans {
		if sp.Name == name {
			d += selfTime(sp, kids[sp.ID])
		}
	}
	return d
}

// miningLayers reads the mining families the program recorded into the
// registry: stage wall-times, exact pair volume (as a share of all n
// records' pairs) and the cut sweep's memo accounting.
func (p *probe) miningLayers(n int) map[string]float64 {
	snap := p.reg.Snapshot()
	stage := snap.Families["mining_stage_ns"]
	sec := func(s string) float64 { return float64(stage[s]) / 1e9 }
	exact := float64(snap.Families["cluster_pairs"]["exact"])
	all := float64(n) * float64(n-1) / 2
	m := map[string]float64{
		"core.filter_s":                 sec("filter"),
		"core.featurize_s":              sec("featurize"),
		"core.label_s":                  sec("label"),
		"core.propagate_s":              sec("propagate"),
		"core.meta_s":                   sec("meta"),
		"cluster.distance_matrix_s":     sec("distance_matrix"),
		"cluster.linkage_s":             sec("linkage"),
		"cluster.blocks_s":              sec("blocks"),
		"cluster.block_linkage_s":       sec("block_linkage"),
		"cluster.cut_s":                 sec("cut") + sec("silhouette"),
		"cluster.exact_pairs":           exact,
		"cluster.sweep_memo_hits":       float64(snap.Families["mining_sweep_memo"]["hit"]),
		"cluster.sweep_blocks_rescored": float64(sum(snap.Families["mining_sweep_blocks"])),
	}
	if all > 0 {
		m["cluster.exact_pair_ratio"] = exact / all
	}
	return m
}

// crawlLayers reads the crawl-side counters the program recorded.
func (p *probe) crawlLayers() map[string]float64 {
	snap := p.reg.Snapshot()
	c := func(name string) float64 { return float64(snap.Counters[name]) }
	return map[string]float64{
		"vnet.requests":                 c("vnet_client_requests"),
		"vnet.transport_errors":         c("vnet_client_transport_errors"),
		"chaos.faults":                  float64(sum(snap.Families["chaos_faults"])),
		"httpx.retries":                 c("httpx_retries"),
		"httpx.retry_after_waits":       c("httpx_retry_after_waits"),
		"crawler.visit_retries":         c("crawler_visit_retries"),
		"crawler.poll_failures":         c("crawler_poll_failures"),
		"crawler.breaker_fast_fails":    c("crawler_breaker_fast_fails"),
		"browser.notifications_shown":   c("browser_notifications_shown"),
		"browser.notifications_clicked": c("browser_notifications_clicked"),
		"browser.redirect_hops_sum":     snap.Histograms["browser_redirect_hops"].Sum,
	}
}

func sum(fam map[string]int64) int64 {
	var t int64
	for _, v := range fam {
		t += v
	}
	return t
}
