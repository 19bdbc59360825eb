// Package crawler implements PushAdMiner's WPN crawler (§4 and §6.1):
// it visits seed URLs with instrumented browsers ("containers"), grants
// notification permission, keeps each container online for a monitoring
// window after its service worker registers, then suspends it and
// periodically resumes it to drain push messages queued at the push
// service — producing the WPN message dataset the analysis module mines.
//
// The crawl runs as ShardWorkers: each owns a disjoint set of
// containers and exposes the crawl's pump phases (seed, poll, dispatch,
// click, finish) as calls. internal/fleet's coordinator drives them
// through one deterministic event loop on the shared simulated clock —
// one worker for a plain crawl, several for a sharded one.
//
// The crawler is built to survive the failures a months-long live crawl
// meets (and which internal/chaos injects deterministically): visits
// retry transient errors, push-service calls ride a per-container
// circuit breaker, containers that stop responding are declared crashed
// and re-seeded a bounded number of times, a worker's state can be saved
// and restored losslessly (ShardState), and every loss is tallied in the
// Result's Degradation report.
package crawler

import (
	"container/heap"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"pushadminer/internal/browser"
	"pushadminer/internal/fcm"
	"pushadminer/internal/httpx"
	"pushadminer/internal/serviceworker"
	"pushadminer/internal/simclock"
	"pushadminer/internal/telemetry"
	"pushadminer/internal/urlx"
	"pushadminer/internal/webpush"
)

// PushDriver is the ecosystem surface the crawler drives: flushing due
// push deliveries and peeking at the next scheduled one.
type PushDriver interface {
	Tick() int
	NextPushAt() (time.Time, bool)
}

// PendingChecker optionally lets the crawler skip HTTP polls for
// containers with no queued messages. The fcm.Service implements it.
type PendingChecker interface {
	Pending(token string) int
}

// Config configures a crawl.
type Config struct {
	// Clock is the shared simulated clock (the ecosystem's). Required.
	Clock *simclock.Simulated
	// NewClient returns an HTTP client routed through the virtual
	// network, not following redirects. Required.
	NewClient func() *http.Client
	// Driver flushes scheduled pushes. Required.
	Driver PushDriver
	// Pending, if non-nil, suppresses no-op polls.
	Pending PendingChecker
	// PushHost selects the push service host ("" = default).
	PushHost string

	// Device and RealDevice select the crawl environment.
	Device     browser.DeviceType
	RealDevice bool

	// MonitorWindow keeps a container online after SW registration
	// (15 minutes in the paper, chosen so 98% of first notifications
	// arrive while live).
	MonitorWindow time.Duration
	// ResumeInterval is how often suspended containers are resumed to
	// drain queued messages.
	ResumeInterval time.Duration
	// CollectionWindow is the total crawl duration after seeding.
	CollectionWindow time.Duration
	// ClickDelay is the instrumented auto-click delay.
	ClickDelay time.Duration
	// MaxNotificationsPerContainer caps runaway subscriptions.
	MaxNotificationsPerContainer int
	// MaxContainers is the number of containers visiting seed URLs in
	// parallel during the seeding phase (the paper ran 20–50 Docker
	// sessions at a time). Default 32.
	MaxContainers int
	// PumpWorkers bounds how many containers are pumped concurrently
	// within one monitor tick batch. The poll, push-dispatch, click,
	// and landing-page subscription phases all fan out: their traffic
	// uses per-container clients and per-container circuit breakers on
	// a frozen clock, and all cross-container state is folded on the
	// serial merge path, so results are byte-identical at every worker
	// count. 1 forces the serial reference path; <= 0 defaults to
	// MaxContainers.
	PumpWorkers int
	// BatchWindow coalesces monitor ticks: instead of waking for every
	// individual push delivery or resume, the event loop advances to
	// the first due event plus this window, pumping everything that
	// came due inside it as one batch — which is what gives the
	// parallel phases batches worth fanning out over (real push-ad
	// deliveries spread across hours; a per-event loop pumps them one
	// at a time). 0 (the default) keeps exact per-event stepping.
	// Identical windows produce identical results at any PumpWorkers.
	BatchWindow time.Duration

	// --- robustness / recovery ---

	// VisitAttempts bounds how many times one URL is (re)visited when
	// the navigation fails or answers 5xx. Default 3.
	VisitAttempts int
	// CrashThreshold is how many consecutive failed polls mark a
	// container as crashed. Default 3.
	CrashThreshold int
	// MaxRecoveries bounds how many times a crashed container is
	// re-seeded (fresh browser, re-visit, re-subscribe). Default 2.
	MaxRecoveries int
	// CrashPlan, if non-nil, injects container crashes: it is asked on
	// every resume cycle whether this container's process dies now.
	// Wire webeco.Ecosystem.CrashPlan here to drive it from a chaos
	// profile.
	CrashPlan func(clientID string, cycle int) bool
	// FaultCounts, if non-nil, snapshots external fault counters
	// (webeco.Ecosystem.FaultCounts) into the Degradation report.
	FaultCounts func() map[string]int

	// --- telemetry ---

	// Metrics, if set, receives crawler counters mirroring the
	// Degradation report (visit retries/failures, poll failures, breaker
	// fast-fails, containers lost/recovered), a per-container
	// pump-latency histogram, and breaker transition counts, and is
	// threaded into every browser the crawl creates. Nil disables with
	// no overhead on the pump hot path beyond one nil check.
	Metrics *telemetry.Registry
	// Tracer, if set, records every browser event as a parent-linked
	// span reconstructing WPN attack chains (exported as JSONL, from
	// which telemetry.Chains rebuilds them).
	Tracer *telemetry.Tracer
}

// crawlMetrics holds a worker's preresolved instruments. Counters are
// created up front (even if never incremented) so snapshot key sets are
// deterministic across runs and can be golden-tested. The zero value
// (telemetry disabled) holds nil instruments, whose methods all no-op;
// enabled gates the one site that would otherwise pay for a timestamp
// (pump latency). The crawl-wide instruments (record count, batch size,
// pump-worker gauge) belong to the fleet coordinator.
type crawlMetrics struct {
	enabled             bool
	visits              *telemetry.Counter
	visitRetries        *telemetry.Counter
	visitFailures       *telemetry.Counter
	visitsAborted       *telemetry.Counter
	pollFailures        *telemetry.Counter
	breakerFastFails    *telemetry.Counter
	containersLost      *telemetry.Counter
	containersRecovered *telemetry.Counter
	pumpLatency         *telemetry.Histogram
}

func newCrawlMetrics(reg *telemetry.Registry) crawlMetrics {
	if reg == nil {
		return crawlMetrics{}
	}
	return crawlMetrics{
		enabled:             true,
		visits:              reg.Counter("crawler_visits"),
		visitRetries:        reg.Counter("crawler_visit_retries"),
		visitFailures:       reg.Counter("crawler_visit_failures"),
		visitsAborted:       reg.Counter("crawler_visits_aborted"),
		pollFailures:        reg.Counter("crawler_poll_failures"),
		breakerFastFails:    reg.Counter("crawler_breaker_fast_fails"),
		containersLost:      reg.Counter("crawler_containers_lost"),
		containersRecovered: reg.Counter("crawler_containers_recovered"),
		pumpLatency:         reg.Histogram("crawler_pump_seconds", telemetry.LatencyBuckets),
	}
}

// WithDefaults returns the config with every unset field filled in,
// exactly as NewShardWorker applies them. The fleet coordinator uses it
// so its event loop and its shard workers agree on effective knob
// values.
func (c Config) WithDefaults() Config {
	if c.MonitorWindow <= 0 {
		c.MonitorWindow = 15 * time.Minute
	}
	if c.ResumeInterval <= 0 {
		c.ResumeInterval = 24 * time.Hour
	}
	if c.CollectionWindow <= 0 {
		c.CollectionWindow = 14 * 24 * time.Hour
	}
	if c.ClickDelay <= 0 {
		c.ClickDelay = 3 * time.Second
	}
	if c.MaxNotificationsPerContainer <= 0 {
		c.MaxNotificationsPerContainer = 64
	}
	if c.MaxContainers <= 0 {
		c.MaxContainers = 32
	}
	if c.PumpWorkers <= 0 {
		c.PumpWorkers = c.MaxContainers
	}
	if c.VisitAttempts <= 0 {
		// A failed seed visit forfeits a container's entire WPN stream,
		// so visits get a generous retry budget: at 4 attempts even a
		// 15% per-request fault rate loses less than one visit in 10⁵.
		c.VisitAttempts = 4
	}
	if c.CrashThreshold <= 0 {
		c.CrashThreshold = 3
	}
	if c.MaxRecoveries <= 0 {
		c.MaxRecoveries = 2
	}
	return c
}

// WPNRecord is one collected web push notification with all metadata the
// instrumented browser observed — the unit of analysis for the mining
// pipeline (§5).
type WPNRecord struct {
	ID     int    `json:"id"`
	Device string `json:"device"`

	// SourceURL is the page whose visit created the subscription that
	// pushed this message; SourceDomain is its eSLD.
	SourceURL    string `json:"source_url"`
	SourceDomain string `json:"source_domain"`
	SWURL        string `json:"sw_url"`

	Title   string `json:"title"`
	Body    string `json:"body"`
	IconURL string `json:"icon_url,omitempty"`

	ShownAt      time.Time `json:"shown_at"`
	RegisteredAt time.Time `json:"registered_at"`
	ClickedAt    time.Time `json:"clicked_at"`

	// Click consequences.
	TargetURL      string   `json:"target_url,omitempty"`
	RedirectChain  []string `json:"redirect_chain,omitempty"`
	LandingURL     string   `json:"landing_url,omitempty"`
	LandingTitle   string   `json:"landing_title,omitempty"`
	LandingContent string   `json:"landing_content,omitempty"`
	ScreenshotHash string   `json:"screenshot_hash,omitempty"`
	// LandingSimHash is the landing page's locality-sensitive content
	// fingerprint (hex), used for visual-similarity comparison during
	// manual verification.
	LandingSimHash string `json:"landing_simhash,omitempty"`
	Crashed        bool   `json:"crashed,omitempty"`

	// SW network activity during push handling and click handling.
	SWRequests []serviceworker.RequestRecord `json:"sw_requests,omitempty"`

	// PayloadAdID is ground-truth plumbing for evaluation only; the
	// mining pipeline must not read it.
	PayloadAdID string `json:"payload_ad_id,omitempty"`
}

// ValidLanding reports whether the click produced a usable landing page
// (the §6.2 filter: 12,262 of 21,541 collected WPNs had one).
func (r *WPNRecord) ValidLanding() bool {
	return !r.Crashed && r.LandingURL != ""
}

// Degradation tallies everything a crawl lost or spent surviving
// faults, so no loss is silent. All counters are deterministic per
// (ecosystem seed, chaos seed).
type Degradation struct {
	// Faults mirrors the ecosystem's fault counters (chaos injector
	// stats, push sends retried/abandoned, queue collapses).
	Faults map[string]int `json:"faults,omitempty"`
	// VisitRetries / VisitFailures count re-attempted visits and
	// visits that stayed dead after all attempts.
	VisitRetries  int `json:"visit_retries,omitempty"`
	VisitFailures int `json:"visit_failures,omitempty"`
	// VisitsAborted counts visit retry ladders cut short by context
	// cancellation (the visit is abandoned, not failed).
	VisitsAborted int `json:"visits_aborted,omitempty"`
	// PollFailures counts push polls that failed after retries.
	PollFailures int `json:"poll_failures,omitempty"`
	// BreakerFastFails counts polls refused instantly by an open
	// circuit (not real failures: the breaker already knew).
	BreakerFastFails int `json:"breaker_fast_fails,omitempty"`
	// DroppedNotifications counts notifications the browser refused to
	// display (e.g. untitled after a dead ad fetch).
	DroppedNotifications int `json:"dropped_notifications,omitempty"`
	// ContainersLost / ContainersRecovered track container crashes and
	// successful re-seeds.
	ContainersLost      int `json:"containers_lost,omitempty"`
	ContainersRecovered int `json:"containers_recovered,omitempty"`
	// RecordsDroppedEst estimates records that can no longer arrive:
	// messages still queued for subscriptions lost in crashes.
	RecordsDroppedEst int `json:"records_dropped_est,omitempty"`
}

// Merge adds o's tallies into d: counters sum and fault maps fold
// key-wise. The fleet coordinator uses it to aggregate per-shard
// Degradation reports into one — because every tally is per-event and
// containers are partitioned across shards, the merged report is the
// same at every shard count.
func (d *Degradation) Merge(o Degradation) {
	if len(o.Faults) > 0 {
		if d.Faults == nil {
			d.Faults = make(map[string]int, len(o.Faults))
		}
		for k, v := range o.Faults {
			d.Faults[k] += v
		}
	}
	d.VisitRetries += o.VisitRetries
	d.VisitFailures += o.VisitFailures
	d.VisitsAborted += o.VisitsAborted
	d.PollFailures += o.PollFailures
	d.BreakerFastFails += o.BreakerFastFails
	d.DroppedNotifications += o.DroppedNotifications
	d.ContainersLost += o.ContainersLost
	d.ContainersRecovered += o.ContainersRecovered
	d.RecordsDroppedEst += o.RecordsDroppedEst
}

// Result is the output of one crawl.
type Result struct {
	SeedURLs       []string
	NPRURLs        []string // seed URLs that requested notification permission
	AdditionalURLs []string // URLs discovered by clicking notifications that also requested permission
	Records        []*WPNRecord
	Containers     int
	// Degradation reports faults seen and work lost during the crawl.
	Degradation Degradation
}

// container is one isolated browsing session (one Docker container in
// the paper's deployment).
type container struct {
	id           int
	seedURL      string
	clientID     string
	brk          *httpx.Breaker
	br           *browser.Browser
	registeredAt time.Time
	activeUntil  time.Time
	nextResume   time.Time
	collected    int
	// cycles counts resume cycles (CrashPlan input); recoveries counts
	// re-seeds after crashes; pollFails counts consecutive failed
	// polls; dead marks a container given up on.
	cycles     int
	recoveries int
	pollFails  int
	dead       bool
	// sourceByToken maps each subscription token to the URL whose visit
	// created it, so records name the right source when a container
	// holds several registrations (seed + landing-page subscriptions).
	sourceByToken map[string]string
	// regTimeByToken maps each token to its registration instant.
	regTimeByToken map[string]time.Time
}

type containerHeap []*container

func (h containerHeap) Len() int            { return len(h) }
func (h containerHeap) Less(i, j int) bool  { return h[i].nextResume.Before(h[j].nextResume) }
func (h containerHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *containerHeap) Push(x interface{}) { *h = append(*h, x.(*container)) }
func (h *containerHeap) Pop() interface{} {
	old := *h
	n := len(old)
	c := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return c
}

// newBreaker builds one container's private push-service circuit
// breaker. Each container owns its breaker — like the paper's
// independent Docker sessions, every browser discovers a push-service
// outage on its own — so breaker state is a pure function of that
// container's request sequence and polls, registrations, and landing
// visits can fan out across containers without request interleaving
// touching breaker decisions. All containers report transitions into
// the same ledger family.
func (w *ShardWorker) newBreaker() *httpx.Breaker {
	// Threshold deliberately below CrashThreshold: a sick push
	// service must trip the circuit (fast-fails, not counted
	// against containers) before any single container accumulates
	// enough poll failures to be misdiagnosed as crashed.
	b := httpx.NewBreaker(w.cfg.Clock, httpx.BreakerConfig{Threshold: 2})
	if w.cfg.Metrics != nil {
		b.SetTransitions(w.cfg.Metrics.Family("breaker_transitions", "edge"))
	}
	return b
}

// bump applies a Degradation mutation under the worker lock: the seed
// visits and landing-page visits that tally retries run on pool
// goroutines.
func (w *ShardWorker) bump(f func(d *Degradation)) {
	w.mu.Lock()
	f(&w.deg)
	w.mu.Unlock()
}

// visitRetry visits a URL with bounded retries. A visit is retried when
// the navigation errored (reset, truncation, blackhole, dead announce)
// or the page answered 5xx/429 — a real crawler does not write a site
// off on one transient failure. Cancellation is checked before every
// attempt, so a cancelled crawl never sits out a full retry ladder; the
// abandoned visit is tallied as aborted, not failed.
func (w *ShardWorker) visitRetry(ct *container, u string) (*browser.VisitResult, error) {
	var (
		vr  *browser.VisitResult
		err error
	)
	for attempt := 1; attempt <= w.cfg.VisitAttempts; attempt++ {
		if cerr := w.ctx.Err(); cerr != nil {
			w.bump(func(d *Degradation) { d.VisitsAborted++ })
			w.tel.visitsAborted.Inc()
			return vr, cerr
		}
		if attempt > 1 {
			w.bump(func(d *Degradation) { d.VisitRetries++ })
			w.tel.visitRetries.Inc()
		}
		w.tel.visits.Inc()
		vr, err = ct.br.Visit(u)
		if err == nil && !transientStatus(vr) {
			return vr, nil
		}
	}
	w.bump(func(d *Degradation) { d.VisitFailures++ })
	w.tel.visitFailures.Inc()
	if err == nil {
		err = fmt.Errorf("crawler: visit %s: status %d after %d attempts",
			u, vr.Navigation.Status, w.cfg.VisitAttempts)
	}
	return vr, err
}

// transientStatus reports a navigation that "succeeded" with a status
// that merits a retry (injected 503s are not errors to net/http).
func transientStatus(vr *browser.VisitResult) bool {
	nav := vr.Navigation
	return nav != nil && (nav.Status >= 500 || nav.Status == http.StatusTooManyRequests)
}

func (w *ShardWorker) clientID(seedURL string) string {
	return fmt.Sprintf("%s#%s", seedURL, w.cfg.Device)
}

func (w *ShardWorker) newBrowser(seedURL string, brk *httpx.Breaker) *browser.Browser {
	return browser.New(browser.Config{
		Clock:       w.cfg.Clock,
		Client:      w.cfg.NewClient(),
		Device:      w.cfg.Device,
		RealDevice:  w.cfg.RealDevice,
		ClickDelay:  w.cfg.ClickDelay,
		ClientID:    w.clientID(seedURL),
		PushBreaker: brk,
		Metrics:     w.cfg.Metrics,
		Tracer:      w.cfg.Tracer,
	})
}

// newContainer builds a container. Its id is its position in the
// *global* seed list plus one, whichever shard owns it — the invariant
// the coordinator's id-order merge and record-ID minting depend on.
func (w *ShardWorker) newContainer(id int, seedURL string) *container {
	brk := w.newBreaker()
	return &container{
		id:             id,
		seedURL:        seedURL,
		clientID:       w.clientID(seedURL),
		brk:            brk,
		br:             w.newBrowser(seedURL, brk),
		sourceByToken:  make(map[string]string),
		regTimeByToken: make(map[string]time.Time),
	}
}

// batchItem is one container's slot in a tick batch: the messages its
// poll returned, the click outcomes and landing-page visits of its
// parallel phases, and its accumulated pump wall-time (telemetry
// only). Each item is owned by exactly one goroutine during the
// fan-out phases.
type batchItem struct {
	ct       *container
	polled   bool
	pollErr  error
	msgs     []webpush.Message
	outcomes []browser.ClickOutcome
	visits   []landingVisit
	elapsed  time.Duration
}

// landingVisit is the outcome of one landing-page subscription visit,
// aligned index-for-index with a batchItem's click outcomes (zero
// value where the outcome's landing page requested no permission).
type landingVisit struct {
	url string
	vr  *browser.VisitResult
	err error
}

// collectDue gathers the tick's batch: containers resumed from the
// suspension heap plus containers still inside their live monitoring
// window, deduplicated (a container due on both paths is pumped once)
// and sorted by container id so every later phase iterates in one
// stable order. Crash-plan evaluation and heap bookkeeping stay here,
// on the serial path.
func (w *ShardWorker) collectDue(now time.Time) []*batchItem {
	var batch []*batchItem
	inBatch := make(map[int]bool)

	// Resume containers due now.
	for len(w.resumes) > 0 && !w.resumes[0].nextResume.After(now) {
		ct := heap.Pop(&w.resumes).(*container)
		ct.cycles++
		if !ct.dead && w.cfg.CrashPlan != nil && w.cfg.CrashPlan(ct.clientID, ct.cycles) {
			w.crashContainer(ct)
		}
		if !ct.dead && !inBatch[ct.id] {
			inBatch[ct.id] = true
			batch = append(batch, &batchItem{ct: ct})
		}
		ct.nextResume = now.Add(w.cfg.ResumeInterval)
		if !ct.dead && ct.nextResume.Before(w.end) && ct.collected < w.cfg.MaxNotificationsPerContainer {
			heap.Push(&w.resumes, ct)
		}
	}

	// Containers still inside their live monitoring window.
	for _, ct := range w.live {
		if !ct.dead && !now.After(ct.activeUntil) && ct.collected < w.cfg.MaxNotificationsPerContainer && !inBatch[ct.id] {
			inBatch[ct.id] = true
			batch = append(batch, &batchItem{ct: ct})
		}
	}

	sort.Slice(batch, func(i, j int) bool { return batch[i].ct.id < batch[j].ct.id })
	return batch
}

// finalBatch builds the end-of-window drain batch: live containers that
// have not yet hit the per-container notification cap.
func (w *ShardWorker) finalBatch() []*batchItem {
	var batch []*batchItem
	for _, ct := range w.live {
		if !ct.dead && ct.collected < w.cfg.MaxNotificationsPerContainer {
			batch = append(batch, &batchItem{ct: ct})
		}
	}
	sort.Slice(batch, func(i, j int) bool { return batch[i].ct.id < batch[j].ct.id })
	return batch
}

// A tick pumps its due containers in phases:
//
//  1. poll (parallel, clock frozen) — each poll touches only its
//     container's browser, client, and private circuit breaker — then
//     a serial classification sweep in ascending container id:
//     Degradation tallies, poll-failure crash detection, and the
//     recovery re-seed crashContainer may run all touch shared state;
//  2. push dispatch (parallel, clock frozen) — per-container ad
//     fetches and notification display, ShownAt identical for the
//     whole batch;
//  3. one ClickDelay advance for the batch, made by the coordinator
//     (the clock never moves inside a phase, so simulated time cannot
//     reorder);
//  4. auto-clicks (parallel, clock frozen) — redirect chains and
//     landing pages, the crawl's dominant HTTP cost — then the
//     landing pages that request permission (§6.2) are visited and
//     subscribed in a second parallel sweep (per-container traffic;
//     token minting is registration-identity-keyed, so cross-container
//     arrival order cannot leak into the output);
//  5. fold (serial, ascending container id) — record construction and
//     folding the landing-page subscriptions into container state; the
//     coordinator then mints record IDs across shards in container-id
//     order.
//
// Every phase iterates the batch in the same stable order, fault and
// latency draws are keyed per container, and all cross-container state
// is touched only in the serial steps, which is what makes the result
// byte-identical at any PumpWorkers count.

// phasePoll is pump phase 1: parallel polls at the frozen tick instant,
// then a serial classification sweep in ascending container id
// (Degradation tallies, poll-failure crash detection, recovery
// re-seeds). Reports whether any container received messages — when no
// shard in a fleet did, the tick ends here with no clock advance.
func (w *ShardWorker) phasePoll(batch []*batchItem) bool {
	w.forEach(batch, func(it *batchItem) {
		it.polled, it.msgs, it.pollErr = w.pollHTTP(it.ct)
	})
	any := false
	for _, it := range batch {
		w.classifyPoll(it.ct, it.polled, it.pollErr)
		if len(it.msgs) > 0 {
			any = true
		}
	}
	return any
}

// phaseDispatch is pump phase 2: parallel push dispatch at the frozen
// poll instant — per-container ad fetches and notification display,
// ShownAt identical for the whole batch.
func (w *ShardWorker) phaseDispatch(batch []*batchItem) {
	w.forEach(batch, func(it *batchItem) {
		if len(it.msgs) > 0 {
			it.ct.br.DispatchPushes(it.msgs)
		}
	})
}

// phaseClick is pump phase 4: parallel auto-clicks at the frozen
// post-delay instant, then parallel landing-page subscription visits.
func (w *ShardWorker) phaseClick(batch []*batchItem) {
	w.forEach(batch, func(it *batchItem) {
		if len(it.msgs) > 0 {
			it.outcomes = it.ct.br.ProcessClicks()
		}
	})
	w.forEach(batch, func(it *batchItem) {
		if len(it.outcomes) == 0 {
			return
		}
		it.visits = make([]landingVisit, len(it.outcomes))
		for i, oc := range it.outcomes {
			if nav := oc.Navigation; nav != nil && nav.Doc != nil &&
				nav.Doc.RequestsNotification && !nav.Crashed {
				vr, err := w.visitRetry(it.ct, nav.FinalURL)
				it.visits[i] = landingVisit{url: nav.FinalURL, vr: vr, err: err}
			}
		}
	})
}

// foldItem folds one pumped batch item into its container's state (the
// per-container half of phase 5): it builds the item's records in
// outcome order — IDs unassigned, the coordinator mints on its serial
// path — and returns the §6.2 additional-subscription URLs whose landing
// pages phase 4 subscribed right there.
func (w *ShardWorker) foldItem(it *batchItem) (recs []*WPNRecord, additional []string) {
	ct := it.ct
	for i, oc := range it.outcomes {
		recs = append(recs, w.record(ct, oc))
		ct.collected++
		if v := it.visits[i]; v.err == nil && v.vr != nil && v.vr.Registration != nil {
			additional = append(additional, v.url)
			ct.sourceByToken[v.vr.Registration.Sub.Token] = v.url
			ct.regTimeByToken[v.vr.Registration.Sub.Token] = w.cfg.Clock.Now()
			// Re-opening the container's live window mirrors the
			// paper keeping sessions alive after new registrations.
			ct.activeUntil = w.cfg.Clock.Now().Add(w.cfg.MonitorWindow)
		}
	}
	return recs, additional
}

// observeBatchLatency records each item's accumulated pump wall-time.
func (w *ShardWorker) observeBatchLatency(batch []*batchItem) {
	if !w.tel.enabled {
		return
	}
	for _, it := range batch {
		w.tel.pumpLatency.Observe(it.elapsed.Seconds())
	}
}

// forEach runs f over the batch on PumpWorkers goroutines (the seeding
// phase's bounded-semaphore discipline), or inline when the pool would
// be pointless. With telemetry on, each item's wall-time accrues to its
// own slot — items are goroutine-private, so no lock is needed.
func (w *ShardWorker) forEach(batch []*batchItem, f func(*batchItem)) {
	run := f
	if w.tel.enabled {
		run = func(it *batchItem) {
			start := time.Now()
			f(it)
			it.elapsed += time.Since(start)
		}
	}
	if w.cfg.PumpWorkers <= 1 || len(batch) == 1 {
		for _, it := range batch {
			run(it)
		}
		return
	}
	sem := make(chan struct{}, w.cfg.PumpWorkers)
	var wg sync.WaitGroup
	for _, it := range batch {
		wg.Add(1)
		sem <- struct{}{}
		go func(it *batchItem) {
			defer wg.Done()
			defer func() { <-sem }()
			run(it)
		}(it)
	}
	wg.Wait()
}

// pollHTTP performs one container's push-service poll: the skip of
// containers with nothing queued and the HTTP round trip. Safe to fan
// out — it touches only the container's own browser, client, and
// private breaker. Folding the outcome into shared state stays on the
// serial path (classifyPoll).
func (w *ShardWorker) pollHTTP(ct *container) (polled bool, msgs []webpush.Message, err error) {
	if w.cfg.Pending != nil && !w.hasPending(ct) {
		return false, nil, nil
	}
	msgs, err = ct.br.PollPush(w.cfg.PushHost)
	return true, msgs, err
}

// classifyPoll folds one poll's outcome into shared state: Degradation
// tallies and poll-failure crash detection, including the recovery
// re-seed crashContainer may run. Open-circuit fast-fails do not feed
// crash detection (the push service being down says nothing about the
// container).
func (w *ShardWorker) classifyPoll(ct *container, polled bool, err error) {
	if !polled {
		return
	}
	if err == nil {
		ct.pollFails = 0
		return
	}
	if errors.Is(err, httpx.ErrCircuitOpen) {
		w.bump(func(d *Degradation) { d.BreakerFastFails++ })
		w.tel.breakerFastFails.Inc()
		return
	}
	w.bump(func(d *Degradation) { d.PollFailures++ })
	w.tel.pollFailures.Inc()
	// Attribute the failure: if this failure tripped (or probed) the
	// container's view of the push host's circuit, the service is sick
	// — that says nothing about the container, so it must not feed
	// crash detection.
	if ct.brk.State(w.pushHostName()) == "closed" {
		ct.pollFails++
		if ct.pollFails >= w.cfg.CrashThreshold {
			ct.pollFails = 0
			w.crashContainer(ct)
		}
	}
}

// crashContainer models a container process dying: browser state
// (registrations, cookies) is gone. Bounded recovery re-seeds it with a
// fresh browser — re-visit, re-subscribe — exactly what the paper's
// operators did with crashed Docker sessions. Runs on the serial path.
func (w *ShardWorker) crashContainer(ct *container) {
	deg := &w.deg
	deg.ContainersLost++
	w.tel.containersLost.Inc()
	deg.DroppedNotifications += ct.br.DroppedNotifications()
	for tok := range ct.sourceByToken {
		w.lostTokens = append(w.lostTokens, tok)
	}
	if ct.recoveries >= w.cfg.MaxRecoveries {
		ct.dead = true
		return
	}
	ct.recoveries++
	// The replacement process starts with a fresh breaker, like a real
	// restarted container rediscovering push-service health from zero.
	ct.brk = w.newBreaker()
	ct.br = w.newBrowser(ct.seedURL, ct.brk)
	ct.sourceByToken = make(map[string]string)
	ct.regTimeByToken = make(map[string]time.Time)
	vr, err := w.visitRetry(ct, ct.seedURL)
	if err != nil || vr.Registration == nil {
		ct.dead = true
		return
	}
	now := w.cfg.Clock.Now()
	tok := vr.Registration.Sub.Token
	ct.sourceByToken[tok] = ct.seedURL
	ct.regTimeByToken[tok] = now
	ct.activeUntil = now.Add(w.cfg.MonitorWindow)
	deg.ContainersRecovered++
	w.tel.containersRecovered.Inc()
}

// pushHostName resolves the push service host for breaker lookups.
func (w *ShardWorker) pushHostName() string {
	if w.cfg.PushHost != "" {
		return w.cfg.PushHost
	}
	return fcm.DefaultHost
}

func (w *ShardWorker) hasPending(ct *container) bool {
	for _, reg := range ct.br.Registrations() {
		if w.cfg.Pending.Pending(reg.Sub.Token) > 0 {
			return true
		}
	}
	return false
}

// record converts one click outcome into a WPNRecord. The ID is left
// unassigned: minting happens on the fleet coordinator's serial
// cross-shard merge, so workers can build records without owning the
// global ID sequence.
func (w *ShardWorker) record(ct *container, oc browser.ClickOutcome) *WPNRecord {
	dn := oc.Notification
	src := ct.sourceByToken[dn.Registration.Sub.Token]
	if src == "" {
		src = ct.seedURL
	}
	regAt, ok := ct.regTimeByToken[dn.Registration.Sub.Token]
	if !ok {
		regAt = ct.registeredAt
	}
	rec := &WPNRecord{
		Device:       w.cfg.Device.String(),
		SourceURL:    src,
		SourceDomain: urlx.ESLDOf(src),
		SWURL:        dn.Registration.Script.URL,
		Title:        dn.Notification.Title,
		Body:         dn.Notification.Body,
		IconURL:      dn.Notification.Icon,
		ShownAt:      dn.ShownAt,
		RegisteredAt: regAt,
		ClickedAt:    w.cfg.Clock.Now(),
		TargetURL:    dn.Notification.TargetURL,
		PayloadAdID:  dn.PayloadAdID,
	}
	rec.SWRequests = append(rec.SWRequests, dn.SWRequests...)
	rec.SWRequests = append(rec.SWRequests, oc.SWRequests...)
	if nav := oc.Navigation; nav != nil {
		rec.RedirectChain = nav.RedirectChain
		rec.Crashed = nav.Crashed
		if !nav.Crashed && nav.Status == http.StatusOK {
			rec.LandingURL = nav.FinalURL
			rec.LandingTitle = nav.Title
			rec.LandingContent = nav.Content
			rec.ScreenshotHash = nav.ScreenshotHash
			rec.LandingSimHash = nav.ContentSimHash.String()
		}
	}
	return rec
}
