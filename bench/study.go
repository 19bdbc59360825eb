package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"time"

	"pushadminer/internal/browser"
	"pushadminer/internal/core"
	"pushadminer/internal/crawler"
	"pushadminer/internal/report"
	"pushadminer/internal/webeco"
)

// runStudy runs one study repetition: core.RunStudy when p is nil, or
// else the same study driven through crawler.ShardWorker, with spans
// around each pump phase unless p is off. Either way it then renders
// every table and figure and scores the labels against ground truth.
func runStudy(cfg core.StudyConfig, p *probe) (outcome, error) {
	start := time.Now()
	var (
		s     *core.Study
		ticks tickStats
		err   error
	)
	if p == nil {
		s, err = core.RunStudy(cfg)
	} else {
		s, ticks, err = tracedStudy(cfg, p)
	}
	if err != nil {
		return outcome{}, err
	}
	defer s.Close()
	sp := p.start("core.tables")
	tables := renderTables(s)
	ev := s.Evaluate()
	p.end(sp)
	wall := time.Since(start)

	o := outcome{
		wall: wall,
		score: score{
			hits:      float64(ev.TruePositives),
			predicted: float64(ev.TruePositives + ev.FalsePositives),
			actual:    float64(ev.TruePositives + ev.FalseNegatives),
		},
	}
	faults := s.Eco.FaultCounts()
	o.attempted, o.failed = pushLosses(faults), pushLosses(faults)
	for _, res := range []*crawler.Result{s.Desktop, s.Mobile} {
		if res != nil {
			a, f := crawlOps(res)
			o.attempted += a
			o.failed += f
		}
	}
	if o.digest, err = studyDigest(s, ev, tables); err != nil {
		return outcome{}, err
	}
	if p.on() {
		o.layers = p.miningLayers(len(s.Analysis.FS.Records))
		for k, v := range p.crawlLayers() {
			o.layers[k] = v
		}
		for k, v := range ticks.layers() {
			o.layers[k] = v
		}
		for _, name := range []string{"webeco.new", "webeco.tick", "crawler.seed", "crawler.poll",
			"crawler.dispatch", "crawler.click", "crawler.merge", "core.pipeline", "core.tables"} {
			o.layers[name+"_s"] = p.total(name).Seconds()
		}
		o.layers["crawler.loop_self_s"] = p.selfTotal("crawl").Seconds()
		o.layers["crawler.records"] = float64(len(s.Records))
		o.layers["push.send_retries"] = float64(faults["push_send_retries"])
		o.layers["label.precision"] = ev.Precision()
		o.layers["label.recall"] = ev.Recall()
	}
	return o, nil
}

// renderTables renders Tables 1–6 and Figures 4–6.
func renderTables(s *core.Study) []*report.Table {
	return []*report.Table{
		core.Table1(s), core.Table2(s), core.Table3(s), core.Table4(s), core.Table5(s),
		core.Table6(s), core.Figure4Table(s), core.Figure5Table(s), core.Figure6Table(s),
	}
}

// studyDigest identifies a study's output: its records, the pipeline
// report, the evaluation against ground truth, and the rendered tables.
func studyDigest(s *core.Study, ev core.Evaluation, tables []*report.Table) (string, error) {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, v := range []any{s.Records, s.Analysis.Report, ev} {
		if err := enc.Encode(v); err != nil {
			return "", fmt.Errorf("digest: %w", err)
		}
	}
	for _, t := range tables {
		fmt.Fprint(h, t.String())
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// tickStats counts the traced crawls' monitor ticks.
type tickStats struct {
	ticks, busy, productive, due int
}

func (t tickStats) layers() map[string]float64 {
	m := map[string]float64{"crawler.ticks": float64(t.ticks)}
	if t.busy > 0 {
		m["crawler.batch_containers_mean"] = float64(t.due) / float64(t.busy)
	}
	if t.ticks > 0 {
		m["crawler.productive_tick_ratio"] = float64(t.productive) / float64(t.ticks)
	}
	return m
}

// tracedStudy is core.RunStudy rebuilt from public calls so each layer
// can be timed: webeco.New, then per device a single crawler.ShardWorker
// driven through Seed, a Poll / Dispatch / Click loop and Finish (the
// loop of the fleet coordinator at one shard, internal/fleet/
// coordinator.go:300-434, which is byte-identical to the single-process
// crawl), then core.RunPipeline. It mirrors RunStudy
// (internal/core/study.go:135-242) for the benchmark's configurations,
// which leave pump workers, rescan delay, shards and checkpoints at
// their defaults: FlushWorkers 32 is RunStudy's fan-out at the default
// PumpWorkers (study.go:140-149), the second scan 30 days on is the
// default RescanAfter (study.go:95-97), and perNetwork copies
// Study.perNetworkStats (study.go:278-307). The digest check catches any
// divergence. The registry is attached wherever RunStudy would attach
// StudyConfig.Metrics; an off probe attaches none.
func tracedStudy(cfg core.StudyConfig, p *probe) (*core.Study, tickStats, error) {
	var ticks tickStats
	cfg.Metrics = p.reg
	cfg.Eco.Telemetry = p.reg
	cfg.Eco.FlushWorkers = 32 // RunStudy's fan-out at the default PumpWorkers
	sp := p.start("webeco.new")
	eco, err := webeco.New(cfg.Eco)
	p.end(sp)
	if err != nil {
		return nil, ticks, err
	}
	s := &core.Study{Cfg: cfg, Eco: eco}
	devices := []browser.DeviceType{browser.Desktop}
	if !cfg.SkipMobile {
		devices = append(devices, browser.Mobile)
	}
	for _, dev := range devices {
		res, err := tracedCrawl(eco, cfg, dev, p, &ticks)
		if err != nil {
			eco.Close()
			return nil, ticks, err
		}
		if dev == browser.Desktop {
			s.Desktop = res
		} else {
			s.Mobile = res
		}
		s.Records = append(s.Records, res.Records...)
	}

	now := eco.Clock.Now()
	opts := core.PipelineOptions{
		Services: []core.BlocklistLookup{core.ServiceLookup{S: eco.VT}, core.ServiceLookup{S: eco.GSB}},
		Scans:    []time.Time{now, now.Add(30 * 24 * time.Hour)}, // RunStudy's default rescan
		Metrics:  p.reg,
	}
	sp = p.start("core.pipeline")
	s.Analysis, err = core.RunPipeline(s.Records, opts)
	p.end(sp)
	if err != nil {
		eco.Close()
		return nil, ticks, err
	}
	s.Analysis.Report.TotalCollected = len(s.Records)
	s.PerNetwork = perNetwork(s)
	return s, ticks, nil
}

// tracedCrawl crawls one device as a single shard.
func tracedCrawl(eco *webeco.Ecosystem, cfg core.StudyConfig, dev browser.DeviceType, p *probe, ticks *tickStats) (*crawler.Result, error) {
	crawlSpan := p.start("crawl")
	defer p.end(crawlSpan)
	cc := crawler.Config{
		Clock:            eco.Clock,
		NewClient:        func() *http.Client { return eco.Net.ClientNoRedirect() },
		Driver:           eco,
		Pending:          eco.Push,
		Device:           dev,
		RealDevice:       dev == browser.Mobile,
		CollectionWindow: cfg.CollectionWindow,
		BatchWindow:      cfg.BatchWindow,
		CrashPlan:        eco.CrashPlan(),
		FaultCounts:      eco.FaultCounts,
		Metrics:          p.reg,
	}.WithDefaults()
	seeds := eco.SeedURLs()
	shardSeeds := make([]crawler.ShardSeed, len(seeds))
	for i, u := range seeds {
		shardSeeds[i] = crawler.ShardSeed{Index: i, URL: u}
	}
	w, err := crawler.NewShardWorker(context.Background(), cc, 0, shardSeeds)
	if err != nil {
		return nil, err
	}

	sp := p.child("crawler.seed", crawlSpan)
	seeded, err := w.Seed()
	p.end(sp)
	if err != nil {
		return nil, err
	}
	res := &crawler.Result{SeedURLs: seeds}
	for _, oc := range seeded.Outcomes {
		if oc.Requested {
			res.NPRURLs = append(res.NPRURLs, seeds[oc.Index])
		}
		if oc.Registered {
			res.Containers++
		}
	}
	// Containers hold ids 1..len(seeds); record ids continue after.
	nextID := len(seeds)
	status := seeded.Status

	pump := func(now time.Time, final bool) error {
		sp := p.child("crawler.poll", crawlSpan)
		poll, err := w.Poll(now, final)
		p.end(sp)
		if err != nil {
			return err
		}
		status = poll.Status
		ticks.ticks++
		if poll.Due > 0 {
			ticks.busy++
			ticks.due += poll.Due
		}
		if poll.Any {
			ticks.productive++
			sp = p.child("crawler.dispatch", crawlSpan)
			err = w.Dispatch()
			p.end(sp)
			if err != nil {
				return err
			}
			cc.Clock.Advance(cc.ClickDelay)
		}
		sp = p.child("crawler.click", crawlSpan)
		tick, err := w.Click()
		p.end(sp)
		if err != nil {
			return err
		}
		sp = p.child("crawler.merge", crawlSpan)
		for _, it := range tick.Items {
			for _, rec := range it.Records {
				nextID++
				rec.ID = nextID
				res.Records = append(res.Records, rec)
			}
			res.AdditionalURLs = append(res.AdditionalURLs, it.AdditionalURLs...)
		}
		p.end(sp)
		return nil
	}

	end := cc.Clock.Now().Add(cc.CollectionWindow)
	for {
		now := cc.Clock.Now()
		if !now.Before(end) {
			break
		}
		next := end
		if at, ok := eco.NextPushAt(); ok && at.Before(next) {
			next = at
		}
		if status.HasResume && status.NextResume.Before(next) {
			next = status.NextResume
		}
		if win := cc.BatchWindow; win > 0 && next.Before(end) {
			if q := next.Add(win); q.Before(end) {
				next = q
			} else {
				next = end
			}
		}
		if next.After(now) {
			cc.Clock.Advance(next.Sub(now))
			now = next
		}
		sp := p.child("webeco.tick", crawlSpan)
		eco.Tick()
		p.end(sp)
		if err := pump(now, false); err != nil {
			return nil, err
		}
		if _, ok := eco.NextPushAt(); !ok && status.Queued == 0 {
			break
		}
	}
	if err := pump(cc.Clock.Now(), true); err != nil {
		return nil, err
	}
	fin, err := w.Finish()
	if err != nil {
		return nil, err
	}
	res.Degradation.Merge(fin.Degradation)
	if fc := eco.FaultCounts(); len(fc) > 0 {
		res.Degradation.Faults = fc
	}
	return res, nil
}

// perNetwork is Figure 6's per-ad-network distribution, computed as
// RunStudy computes it.
func perNetwork(s *core.Study) []core.NetworkStats {
	agg := map[string]*core.NetworkStats{}
	for i, r := range s.Analysis.FS.Records {
		l := s.Analysis.Labels[i]
		if !l.IsAd {
			continue
		}
		name := s.NetworkOfSW(r.SWURL)
		st := agg[name]
		if st == nil {
			st = &core.NetworkStats{Network: name}
			agg[name] = st
		}
		st.Ads++
		if l.Malicious() {
			st.MaliciousAds++
		}
	}
	out := make([]core.NetworkStats, 0, len(agg))
	for _, st := range agg {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Ads != out[j].Ads {
			return out[i].Ads > out[j].Ads
		}
		return out[i].Network < out[j].Network
	})
	return out
}
