package browser

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"pushadminer/internal/chaos"
	"pushadminer/internal/fcm"
	"pushadminer/internal/httpx"
	"pushadminer/internal/page"
	"pushadminer/internal/serviceworker"
	"pushadminer/internal/simclock"
	"pushadminer/internal/simhash"
	"pushadminer/internal/telemetry"
	"pushadminer/internal/textmine"
	"pushadminer/internal/webpush"
)

// DeviceType distinguishes the desktop and mobile (Android) crawler
// environments (§4.1, §4.2).
type DeviceType int

// Device types.
const (
	Desktop DeviceType = iota
	Mobile
)

// String implements fmt.Stringer.
func (d DeviceType) String() string {
	if d == Mobile {
		return "mobile"
	}
	return "desktop"
}

// PermissionPolicy decides what happens when a page requests notification
// permission.
type PermissionPolicy int

// Permission policies.
const (
	// AutoGrant is the instrumented-browser behaviour: every request is
	// granted (the PermissionContextBase patch).
	AutoGrant PermissionPolicy = iota
	// Deny declines every request.
	Deny
	// QuietUI models Chrome 80's quieter permission UI (§6.4): prompts
	// from origins on a known-abusive list are suppressed; everything
	// else still prompts (and is granted here).
	QuietUI
)

// navRetries is how many extra attempts each navigation hop gets when
// it fails transiently (transport error, 5xx, or 429). A faulted hop
// otherwise kills the whole redirect chain — the landing page, its
// screenshot, and any permission prompt it would have shown.
const navRetries = 5

// Config configures a Browser.
type Config struct {
	// Clock drives all timing. Defaults to the real clock.
	Clock simclock.Clock
	// Client performs HTTP; it must route through the simulation's vnet.
	// Redirects must NOT be followed by the client itself (the browser
	// records each hop). Required.
	Client *http.Client
	// Device selects the desktop or mobile environment.
	Device DeviceType
	// RealDevice marks a physical (non-emulated) mobile device. Mobile
	// malicious campaigns fingerprint emulators (§6.1.3); the browser
	// advertises this via a client hint header.
	RealDevice bool
	// Policy is the permission policy. Default AutoGrant.
	Policy PermissionPolicy
	// QuietedOrigins is the abusive-origin list consulted by QuietUI.
	QuietedOrigins map[string]bool
	// ClickDelay is how long after display a notification is
	// auto-clicked. Default 3 seconds.
	ClickDelay time.Duration
	// MaxRedirects bounds navigation redirect chains. Default 10.
	MaxRedirects int
	// ClientID is a stable identifier for this browser instance,
	// announced with subscriptions so server-side scheduling stays
	// deterministic regardless of crawl parallelism. It is also stamped
	// on every outgoing request (chaos.ClientHeader) so fault injection
	// keys on the browser identity, not on goroutine scheduling.
	ClientID string
	// PushBreaker, if set, is the shared per-host circuit breaker used
	// for push-service calls (register, poll).
	PushBreaker *httpx.Breaker
	// Metrics, if set, receives browser counters (notifications shown/
	// clicked/dropped, navigation hop retries, redirect-chain lengths,
	// httpx retry activity). Nil disables with no overhead.
	Metrics *telemetry.Registry
	// Tracer, if set, records every instrumentation event as a
	// parent-linked span, reconstructing the WPN attack chain live
	// (seed visit → permission → SW install → push → notification →
	// click → redirect hops → landing). It is the browser's only event
	// log: nil records no events.
	Tracer *telemetry.Tracer
}

// browserMetrics holds the browser's resolved instruments. All fields
// are nil when telemetry is disabled; every call on them no-ops.
type browserMetrics struct {
	navRetries *telemetry.Counter
	shown      *telemetry.Counter
	clicked    *telemetry.Counter
	dropped    *telemetry.Counter
	hops       *telemetry.Histogram
	retry      *httpx.RetryMetrics
}

// Browser is one instrumented browser instance (one crawler container).
// It is safe for use from a single goroutine, matching one container per
// URL; its state is internally locked so observers may read
// concurrently.
type Browser struct {
	cfg     Config
	runtime *serviceworker.Runtime
	met     browserMetrics
	rec     *telemetry.ChainRecorder

	mu     sync.Mutex
	regs   []*serviceworker.Registration
	notifs []*DisplayedNotification
	// droppedNotifs counts notifications the browser refused to display
	// (e.g. untitled after a failed ad fetch) — degradation accounting.
	droppedNotifs int

	// currentSWRequests collects SW request records during a dispatch.
	currentSWRequests *[]serviceworker.RequestRecord
	// pendingWindows collects openWindow URLs during a click dispatch.
	pendingWindows []string
}

// DisplayedNotification is a notification sitting in the notification
// center (desktop) or system tray (mobile).
type DisplayedNotification struct {
	Notification webpush.Notification
	Registration *serviceworker.Registration
	ShownAt      time.Time
	Clicked      bool
	SWRequests   []serviceworker.RequestRecord // requests during the push dispatch
	// PayloadAdID is the ad id carried by the push payload, logged by
	// the instrumentation (the mining pipeline does not use it; the
	// evaluation oracle does).
	PayloadAdID string
}

// New creates a Browser.
func New(cfg Config) *Browser {
	if cfg.Clock == nil {
		cfg.Clock = simclock.Real{}
	}
	if cfg.ClickDelay <= 0 {
		cfg.ClickDelay = 3 * time.Second
	}
	if cfg.MaxRedirects <= 0 {
		cfg.MaxRedirects = 10
	}
	if cfg.Client == nil {
		panic("browser: Config.Client is required")
	}
	if cfg.ClientID != "" {
		chaos.TagClient(cfg.Client, cfg.ClientID)
	}
	b := &Browser{cfg: cfg}
	if cfg.Metrics != nil {
		b.met = browserMetrics{
			navRetries: cfg.Metrics.Counter("browser_nav_retries"),
			shown:      cfg.Metrics.Counter("browser_notifications_shown"),
			clicked:    cfg.Metrics.Counter("browser_notifications_clicked"),
			dropped:    cfg.Metrics.Counter("browser_notifications_dropped"),
			hops:       cfg.Metrics.Histogram("browser_redirect_hops", telemetry.HopBuckets),
			retry: &httpx.RetryMetrics{
				Retries:         cfg.Metrics.Counter("httpx_retries"),
				RetryAfterWaits: cfg.Metrics.Counter("httpx_retry_after_waits"),
			},
		}
	}
	b.rec = telemetry.NewChainRecorder(cfg.Tracer, cfg.ClientID)
	b.runtime = &serviceworker.Runtime{
		Client: cfg.Client,
		// Transient-failure retries on SW ad fetches: a failed fetch
		// eats the notification being assembled (it displays untitled
		// and is refused), and a lost notification also loses every
		// record behind its click chain, so the budget is sized for
		// double-digit per-request fault rates (at 15% faults, six
		// attempts leave ~1e-5 loss per fetch).
		FetchRetries:       5,
		OnRequest:          b.onSWRequest,
		OnShowNotification: nil, // bound per dispatch
		OnOpenWindow:       nil,
	}
	return b
}

// Device returns the browser's device type.
func (b *Browser) Device() DeviceType { return b.cfg.Device }

// log records one instrumentation event on the tracer, if any. kv
// alternates field names and values; an untraced browser builds no
// fields.
func (b *Browser) log(kind EventKind, kv ...string) {
	if !b.traced() {
		return
	}
	fields := make(map[string]string, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		fields[kv[i]] = kv[i+1]
	}
	b.rec.Event(b.cfg.Clock.Now(), string(kind), fields)
}

// traced reports whether events are recorded. Call sites that format a
// field (a status code, an error) check it first, so an untraced
// browser formats nothing.
func (b *Browser) traced() bool { return b.rec != nil }

// DroppedNotifications reports how many notifications were refused
// display (failed validation), so record loss is never silent.
func (b *Browser) DroppedNotifications() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.droppedNotifs
}

// Registrations returns the browser's service worker registrations.
func (b *Browser) Registrations() []*serviceworker.Registration {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]*serviceworker.Registration, len(b.regs))
	copy(out, b.regs)
	return out
}

func (b *Browser) onSWRequest(rec serviceworker.RequestRecord) {
	if b.traced() {
		b.log(EvSWRequest, "url", rec.URL, "sw", rec.SWURL, "status", strconv.Itoa(rec.Status), "error", rec.Error)
	}
	b.mu.Lock()
	if b.currentSWRequests != nil {
		*b.currentSWRequests = append(*b.currentSWRequests, rec)
	}
	b.mu.Unlock()
}

// get issues a single instrumented GET without following redirects.
func (b *Browser) get(rawURL string, kind EventKind) (*http.Response, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, rawURL, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("browser: %w", err)
	}
	req.Header.Set("User-Agent", b.userAgent())
	if b.cfg.Device == Mobile {
		real := "emulated"
		if b.cfg.RealDevice {
			real = "physical"
		}
		req.Header.Set("X-Sim-Device", real)
	}
	resp, err := b.cfg.Client.Do(req)
	if err != nil {
		if b.traced() {
			b.log(kind, "url", rawURL, "error", err.Error())
		}
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, nil, err
	}
	if b.traced() {
		b.log(kind, "url", rawURL, "status", strconv.Itoa(resp.StatusCode))
	}
	return resp, body, nil
}

func (b *Browser) userAgent() string {
	if b.cfg.Device == Mobile {
		return "Mozilla/5.0 (Linux; Android 7.1.1; Nexus 5) SimChromium/64.0"
	}
	return "Mozilla/5.0 (X11; Linux x86_64) SimChromium/64.0"
}

// Navigation records one navigation with its full redirect chain and the
// rendered landing page.
type Navigation struct {
	RequestedURL  string
	RedirectChain []string // every URL visited, in order, including final
	FinalURL      string
	Status        int
	Title         string
	Content       string
	// ScreenshotHash stands in for the landing-page screenshot the
	// desktop crawler captures: a stable digest of the rendered content.
	ScreenshotHash string
	// ContentSimHash is a locality-sensitive fingerprint of the rendered
	// content; visually similar pages (same scam kit on another domain)
	// land within a few bits of each other.
	ContentSimHash simhash.Hash
	Crashed        bool
	Doc            *page.Doc
}

// Navigate fetches a URL following redirects hop by hop, recording each
// hop, and renders the final page. It reproduces step 8 of Figure 3.
func (b *Browser) Navigate(rawURL string) (*Navigation, error) {
	nav := &Navigation{RequestedURL: rawURL}
	cur := rawURL
	for hop := 0; ; hop++ {
		if hop > b.cfg.MaxRedirects {
			return nav, fmt.Errorf("browser: too many redirects from %s", rawURL)
		}
		nav.RedirectChain = append(nav.RedirectChain, cur)
		// A hop that is not an http(s) URL (an empty OpenWindow target)
		// cannot load: it fails here, as its request would, without
		// being sent or retried.
		if err := loadable(cur); err != nil {
			if b.traced() {
				b.log(EvNavigation, "url", cur, "error", err.Error())
			}
			return nav, err
		}
		resp, body, err := b.get(cur, EvNavigation)
		// Hop-level retries: a transiently failed hop (reset, 5xx,
		// 429) would otherwise abort the chain or render an error page
		// with no document, silently losing the landing page.
		for retry := 0; retry < navRetries && transientHop(resp, err); retry++ {
			b.met.navRetries.Inc()
			resp, body, err = b.get(cur, EvNavigation)
		}
		if err != nil {
			return nav, err
		}
		if isRedirect(resp.StatusCode) {
			loc := resp.Header.Get("Location")
			next, err := resolveRef(cur, loc)
			if err != nil {
				return nav, fmt.Errorf("browser: bad redirect %q: %w", loc, err)
			}
			b.log(EvRedirect, "from", cur, "to", next)
			cur = next
			continue
		}
		nav.FinalURL = cur
		nav.Status = resp.StatusCode
		b.met.hops.Observe(float64(len(nav.RedirectChain)))
		b.render(nav, resp, body)
		return nav, nil
	}
}

func (b *Browser) render(nav *Navigation, resp *http.Response, body []byte) {
	sum := sha256.Sum256(body)
	nav.ScreenshotHash = hex.EncodeToString(sum[:8])
	defer func() {
		nav.ContentSimHash = simhash.Of(textmine.Tokenize(nav.Title + " " + nav.Content))
	}()
	if strings.HasPrefix(resp.Header.Get("Content-Type"), page.ContentType) {
		if doc, err := page.Decode(body); err == nil {
			nav.Doc = doc
			nav.Title = doc.Title
			nav.Content = doc.Content
			if doc.Crash {
				nav.Crashed = true
				b.log(EvTabCrashed, "url", nav.FinalURL)
				return
			}
		}
	} else {
		nav.Content = string(body)
	}
	b.log(EvLandingPage, "url", nav.FinalURL, "title", nav.Title, "screenshot", nav.ScreenshotHash)
}

// loadable rejects a URL no navigation can load: one that does not
// parse, or whose scheme is not http or https.
func loadable(rawURL string) error {
	u, err := url.Parse(rawURL)
	if err != nil {
		return fmt.Errorf("browser: %w", err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return fmt.Errorf("browser: cannot load %q: unsupported protocol scheme %q", rawURL, u.Scheme)
	}
	return nil
}

// transientHop reports whether a navigation hop failed in a way worth
// retrying: transport error, server error, or rate limiting.
func transientHop(resp *http.Response, err error) bool {
	return err != nil || resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests
}

func isRedirect(code int) bool {
	switch code {
	case http.StatusMovedPermanently, http.StatusFound, http.StatusSeeOther,
		http.StatusTemporaryRedirect, http.StatusPermanentRedirect:
		return true
	}
	return false
}

func resolveRef(base, ref string) (string, error) {
	bu, err := url.Parse(base)
	if err != nil {
		return "", err
	}
	ru, err := url.Parse(ref)
	if err != nil {
		return "", err
	}
	return bu.ResolveReference(ru).String(), nil
}

// VisitResult describes the outcome of visiting a seed URL.
type VisitResult struct {
	URL                 string
	Navigation          *Navigation
	RequestedPermission bool
	DoublePermission    bool
	Granted             bool
	Registration        *serviceworker.Registration
}

// Visit loads a page and, if it requests notification permission, applies
// the permission policy; on grant it registers the page's service worker
// and creates the push subscription (steps 1–4 of Figure 3).
func (b *Browser) Visit(rawURL string) (*VisitResult, error) {
	res := &VisitResult{URL: rawURL}
	b.log(EvVisit, "url", rawURL, "device", b.cfg.Device.String())
	nav, err := b.Navigate(rawURL)
	res.Navigation = nav
	if err != nil {
		return res, err
	}
	doc := nav.Doc
	if doc == nil || !doc.RequestsNotification || nav.Crashed {
		return res, nil
	}
	origin := originOf(nav.FinalURL)

	if doc.DoublePermission {
		res.DoublePermission = true
		// The JS-built prompt: the instrumented browser "accepts" it,
		// which triggers the real permission request.
		b.log(EvJSPermissionPrompt, "origin", origin)
	}
	res.RequestedPermission = true
	b.log(EvPermissionRequested, "origin", origin)

	switch b.cfg.Policy {
	case Deny:
		b.log(EvPermissionDenied, "origin", origin)
		return res, nil
	case QuietUI:
		if b.cfg.QuietedOrigins[origin] {
			b.log(EvPermissionQuieted, "origin", origin)
			return res, nil
		}
	}
	res.Granted = true
	b.log(EvPermissionGranted, "origin", origin)

	reg, err := b.registerServiceWorker(origin, doc)
	if err != nil {
		return res, err
	}
	res.Registration = reg
	return res, nil
}

// registerServiceWorker fetches and parses the SW script, subscribes with
// the push service, and announces the subscription to the ad network.
func (b *Browser) registerServiceWorker(origin string, doc *page.Doc) (*serviceworker.Registration, error) {
	if doc.SWURL == "" {
		return nil, fmt.Errorf("browser: page requests notifications but has no sw_url")
	}
	resp, body, err := b.get(doc.SWURL, EvPageRequest)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("browser: SW script %s: status %d", doc.SWURL, resp.StatusCode)
	}
	script, err := serviceworker.Parse(body)
	if err != nil {
		return nil, err
	}
	script.URL = doc.SWURL

	pushHost := doc.PushHost
	if pushHost == "" {
		pushHost = fcm.DefaultHost
	}
	pushClient := fcm.NewClientWith(b.cfg.Client, pushHost, b.cfg.PushBreaker).WithRetryMetrics(b.met.retry)
	sub, err := pushClient.Register(origin, doc.SWURL)
	if err != nil {
		return nil, fmt.Errorf("browser: push subscribe: %w", err)
	}
	reg := &serviceworker.Registration{Origin: origin, Scope: "/", Script: script, Sub: sub}

	b.mu.Lock()
	b.regs = append(b.regs, reg)
	b.mu.Unlock()
	b.log(EvSWRegistered, "origin", origin, "sw", doc.SWURL, "token", sub.Token)

	if doc.SubscribeURL != "" {
		// Announce token+endpoint to the ad network server (step 4).
		// The announce is load-bearing — a subscription the network
		// never learns about receives no pushes — so it retries
		// transient failures and treats a non-2xx answer as an error
		// the caller can recover from (the crawler re-visits). The
		// server is simulated, so the backoff waits no real time.
		payload := fmt.Sprintf(`{"token":%q,"endpoint":%q,"origin":%q,"device":%q,"hw":%q,"client":%q}`,
			sub.Token, sub.Endpoint, origin, b.cfg.Device.String(), b.hardware(), b.cfg.ClientID)
		announce := httpx.New(b.cfg.Client, simclock.NoWait{Clock: simclock.Real{}}, httpx.RetryPolicy{
			MaxAttempts: 3,
			BaseDelay:   5 * time.Millisecond,
			MaxDelay:    50 * time.Millisecond,
		}).WithMetrics(b.met.retry)
		resp, err := announce.Post(doc.SubscribeURL, "application/json", []byte(payload))
		if err != nil {
			return reg, fmt.Errorf("browser: announce subscription: %w", err)
		}
		resp.Body.Close()
		if b.traced() {
			b.log(EvPageRequest, "url", doc.SubscribeURL, "status", strconv.Itoa(resp.StatusCode))
		}
		if resp.StatusCode/100 != 2 {
			return reg, fmt.Errorf("browser: announce subscription: status %d", resp.StatusCode)
		}
	}
	return reg, nil
}

func (b *Browser) hardware() string {
	if b.cfg.Device == Mobile {
		if b.cfg.RealDevice {
			return "physical"
		}
		return "emulated"
	}
	return "desktop"
}

func originOf(rawURL string) string {
	u, err := url.Parse(rawURL)
	if err != nil {
		return rawURL
	}
	return u.Scheme + "://" + u.Hostname()
}
