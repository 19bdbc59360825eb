// Package vnet provides the virtual network the simulated web runs on:
// virtual HTTPS hosts, each an http.Handler, and http.Clients that
// reach them by direct dispatch. A request is served by calling its
// host's handler in the caller's goroutine, with net/http's request and
// response types built as an HTTP/1.1 server and client build them from
// the wire. No byte is framed or sent: there is no connection, pool,
// socket, name resolution or TLS (URLs keep the https scheme).
package vnet

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/url"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"pushadminer/internal/chaos"
	"pushadminer/internal/httpx"
	"pushadminer/internal/telemetry"
)

// Network is a virtual internet. Register hosts with Handle, then create
// clients with Client. Close drains in-flight requests; requests after
// Close fail.
type Network struct {
	mu       sync.RWMutex
	hosts    map[string]http.Handler
	fallback http.Handler
	// middleware, if set, wraps every dispatched handler (fault
	// injection, instrumentation). Set it before traffic starts.
	middleware func(host string, h http.Handler) http.Handler
	// wrapTransport, if set, wraps the round tripper of every client
	// created afterwards (client-side fault injection).
	wrapTransport func(http.RoundTripper) http.RoundTripper

	// closed is set when Close begins; no request starts after it. It
	// is read under mu as inflight is raised, so Add never races Wait.
	closed   bool
	inflight sync.WaitGroup

	// roundTrip serves every request of every client, read per request:
	// dispatch, unless a test points it at another path.
	roundTrip func(*http.Request) (*http.Response, error)

	// reqFamily is the single per-host request counter: RequestCounts
	// reads it, and AttachMetrics adopts the same family into a
	// telemetry registry, so tests and snapshots can never disagree.
	reqFamily *telemetry.Family

	metrics *clientMetrics // client-side counting, set by AttachMetrics
}

// clientMetrics counts every round trip of every client created after
// AttachMetrics, at the one choke point all simulated traffic crosses.
// Sitting outside the chaos transport wrapper, it sees blackholed and
// reset requests as transport errors, and chaos-marked responses by
// their injected-fault kind — which is what makes chaos's injected
// counts reconcilable with the crawler's retry counters.
type clientMetrics struct {
	requests *telemetry.Counter // round trips attempted
	errors   *telemetry.Counter // transport-level failures, any cause
	errKinds *telemetry.Family  // the same failures classified by cause
	status   *telemetry.Family  // responses by status class ("2xx".."5xx")
	injected *telemetry.Family  // chaos-marked responses by fault kind
}

// New returns a virtual network with no hosts yet. It starts nothing
// and opens no socket.
func New() *Network {
	n := &Network{
		hosts:     make(map[string]http.Handler),
		reqFamily: telemetry.NewFamily("vnet_requests_by_host", "host"),
	}
	n.roundTrip = n.dispatch
	return n
}

// Close shuts the network down: requests that have not started fail,
// and in-flight ones are drained (with a bound, so a wedged handler
// cannot hang shutdown forever).
func (n *Network) Close() error {
	n.mu.Lock()
	n.closed = true
	n.mu.Unlock()
	done := make(chan struct{})
	go func() {
		n.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
	}
	return nil
}

// Handle registers a handler for a virtual hostname (no port, lowercase).
// Registering the same host twice replaces the handler.
func (n *Network) Handle(host string, h http.Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.hosts[strings.ToLower(host)] = h
}

// HandleFunc registers a handler function for a virtual hostname.
func (n *Network) HandleFunc(host string, f func(http.ResponseWriter, *http.Request)) {
	n.Handle(host, http.HandlerFunc(f))
}

// SetFallback registers a handler used for hosts with no registration.
// Without a fallback, unknown hosts get 502 Bad Gateway — the virtual
// equivalent of DNS resolution failure.
func (n *Network) SetFallback(h http.Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.fallback = h
}

// SetMiddleware installs a wrapper applied to every dispatched handler
// (including the fallback). Passing nil removes it. Install before
// traffic starts; requests already in flight keep the handler they
// resolved.
func (n *Network) SetMiddleware(mw func(host string, h http.Handler) http.Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.middleware = mw
}

// SetTransportWrapper installs a wrapper applied to the round tripper
// of every client created afterwards. Clients created before the call
// are unaffected.
func (n *Network) SetTransportWrapper(wrap func(http.RoundTripper) http.RoundTripper) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.wrapTransport = wrap
}

// Hosts returns the registered virtual hostnames, sorted.
func (n *Network) Hosts() []string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]string, 0, len(n.hosts))
	for h := range n.hosts {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}

// RequestCount returns how many requests the given host has served.
func (n *Network) RequestCount(host string) int {
	return int(n.reqFamily.With(strings.ToLower(host)).Value())
}

// RequestCounts returns a race-safe snapshot of the per-host request
// counters. It reads the same telemetry family AttachMetrics exposes in
// registry snapshots — one code path for both consumers.
func (n *Network) RequestCounts() map[string]int {
	counts := n.reqFamily.Counts()
	out := make(map[string]int, len(counts))
	for h, c := range counts {
		out[h] = int(c)
	}
	return out
}

// AttachMetrics folds the network's per-host request family into the
// registry and starts client-side counting: every client created after
// this call counts round trips, transport errors, response status
// classes, and chaos-injected faults (marked via chaos.InjectedHeader).
// A nil registry detaches. Attach before creating clients whose traffic
// must be counted.
func (n *Network) AttachMetrics(reg *telemetry.Registry) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if reg == nil {
		n.metrics = nil
		return
	}
	reg.Adopt(n.reqFamily)
	n.metrics = &clientMetrics{
		requests: reg.Counter("vnet_client_requests"),
		errors:   reg.Counter("vnet_client_transport_errors"),
		errKinds: reg.Family("vnet_client_errors", "kind"),
		status:   reg.Family("vnet_responses_by_class", "class"),
		injected: reg.Family("vnet_injected_faults", "kind"),
	}
}

// admit counts one request for hostport, marks it in flight (the caller
// calls inflight.Done) and returns its host's handler or the fallback,
// behind the middleware, or else a 502 — the virtual DNS failure. Once
// Close has begun it fails with an error wrapping net.ErrClosed.
func (n *Network) admit(hostport string) (http.Handler, error) {
	host := strings.ToLower(hostport)
	if i := strings.IndexByte(host, ':'); i >= 0 {
		host = host[:i]
	}
	n.mu.RLock()
	if n.closed {
		n.mu.RUnlock()
		return nil, fmt.Errorf("vnet: request for %s: %w", host, net.ErrClosed)
	}
	n.inflight.Add(1)
	h := n.hosts[host]
	if h == nil {
		h = n.fallback
	}
	mw := n.middleware
	n.mu.RUnlock()
	n.reqFamily.Add(host, 1)
	switch {
	case h == nil:
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "vnet: no such host "+host, http.StatusBadGateway)
		})
	case mw != nil:
		h = mw(host, h)
	}
	return h, nil
}

// dispatch is the network's round trip: it calls req's handler in the
// caller's goroutine on a request built as http.Server parses one, and
// returns what the handler wrote. It only reads and closes req's body.
// A handler panic fails the request, as http.Server's recovery does by
// killing the connection; any value but http.ErrAbortHandler is logged
// with its host and path, as net/http logs it.
func (n *Network) dispatch(req *http.Request) (resp *http.Response, err error) {
	var body []byte
	if req.Body != nil && req.Body != http.NoBody {
		body, err = io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, err
		}
	}
	if s := req.URL.Scheme; s != "http" && s != "https" {
		return nil, fmt.Errorf("unsupported protocol scheme %q", s)
	}
	r := &http.Request{Method: req.Method, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: req.Header.Clone(), Body: http.NoBody, Host: req.Host, RequestURI: req.URL.RequestURI()}
	if r.URL, err = url.ParseRequestURI(r.RequestURI); err != nil {
		return nil, fmt.Errorf("vnet: %w", err)
	}
	if r.Host == "" {
		r.Host = req.URL.Host
	}
	if len(body) > 0 {
		r.Body, r.ContentLength = io.NopCloser(bytes.NewReader(body)), int64(len(body))
	}
	h, err := n.admit(r.Host)
	if err != nil {
		return nil, err
	}
	defer n.inflight.Done()
	w := &recorder{header: make(http.Header)}
	defer func() {
		if p := recover(); p != nil {
			if p != http.ErrAbortHandler {
				log.Printf("vnet: panic serving %s%s: %v\n%s", r.Host, r.URL.Path, p, debug.Stack())
			}
			resp, err = nil, errors.New("vnet: connection closed before the response")
		}
	}()
	h.ServeHTTP(w, r.WithContext(req.Context()))
	return w.response(req), nil
}

// recorder is the handler's http.ResponseWriter. As http.Server's does,
// it takes the status from the first WriteHeader (or Write), sends the
// header as it was then, and refuses a body for 1xx, 204 and 304.
type recorder struct {
	header, sent http.Header
	code         int
	body         bytes.Buffer
}

func (w *recorder) Header() http.Header { return w.header }

func (w *recorder) WriteHeader(code int) {
	if w.code == 0 {
		w.code, w.sent = code, w.header.Clone()
	}
}

func (w *recorder) Write(p []byte) (int, error) {
	if w.WriteHeader(http.StatusOK); !bodyAllowed(w.code) {
		return 0, http.ErrBodyNotAllowed
	}
	return w.body.Write(p)
}

func bodyAllowed(code int) bool {
	return code >= 200 && code != http.StatusNoContent && code != http.StatusNotModified
}

// response is the client's view of what the handler wrote, with the
// Content-Type (sniffed) and Content-Length http.Server adds when the
// handler set none. A body shorter than its declared length (a
// truncated response) ends in io.ErrUnexpectedEOF, as a connection
// closed mid-body does. HEAD, 204 and 304 responses carry no body.
func (w *recorder) response(req *http.Request) *http.Response {
	w.WriteHeader(http.StatusOK)
	h, body := w.sent, w.body.Bytes()
	resp := &http.Response{Status: strconv.Itoa(w.code) + " " + http.StatusText(w.code), StatusCode: w.code,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1, Header: h, Body: http.NoBody, Request: req}
	if !bodyAllowed(w.code) {
		h.Del("Content-Length")
		return resp
	}
	if _, ok := h["Content-Type"]; !ok && len(body) > 0 && h.Get("Content-Encoding") == "" {
		h.Set("Content-Type", http.DetectContentType(body))
	}
	if h.Get("Content-Length") == "" && (req.Method != http.MethodHead || len(body) > 0) {
		h.Set("Content-Length", strconv.Itoa(len(body)))
	}
	// A missing (HEAD, no body) or malformed length reads as 0.
	resp.ContentLength, _ = strconv.ParseInt(h.Get("Content-Length"), 10, 64)
	switch {
	case req.Method == http.MethodHead:
	case int64(len(body)) < resp.ContentLength:
		resp.Body = shortBody{bytes.NewReader(body)}
	default:
		resp.Body = io.NopCloser(bytes.NewReader(body))
	}
	return resp
}

// shortBody reads what a truncated response's handler wrote, then
// io.ErrUnexpectedEOF.
type shortBody struct{ r *bytes.Reader }

func (b shortBody) Read(p []byte) (n int, err error) {
	if n, err = b.r.Read(p); err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

func (shortBody) Close() error { return nil }

// transport is every client's base round tripper: it hands each request
// to the network's roundTrip.
type transport struct{ n *Network }

// RoundTrip implements http.RoundTripper.
func (t transport) RoundTrip(req *http.Request) (*http.Response, error) {
	return t.n.roundTrip(req)
}

// Client returns an http.Client that resolves all hosts through the
// virtual network. Redirects are followed up to the standard limit; use
// ClientNoRedirect to observe redirect chains hop by hop. It has no
// Timeout, which could not cut short a handler running in the caller's
// goroutine.
func (n *Network) Client() *http.Client {
	return &http.Client{Transport: n.newTransport()}
}

// ClientNoRedirect returns a client that does not follow redirects,
// letting callers record each hop of a redirection chain. The client
// carries its own cookie jar: each crawler container is an isolated
// browsing session, which is exactly why the paper ran one Docker
// container per URL — some ad networks track browsers across sessions
// via cookies (§8). The jar is an httpx.MemJar, which sends cookies in
// a deterministic order.
func (n *Network) ClientNoRedirect() *http.Client {
	return &http.Client{
		Transport: n.newTransport(),
		Jar:       httpx.NewMemJar(),
		CheckRedirect: func(req *http.Request, via []*http.Request) error {
			return http.ErrUseLastResponse
		},
	}
}

func (n *Network) newTransport() http.RoundTripper {
	var rt http.RoundTripper = transport{n}
	n.mu.RLock()
	wrap := n.wrapTransport
	m := n.metrics
	n.mu.RUnlock()
	if wrap != nil {
		rt = wrap(rt)
	}
	if m != nil {
		// Outermost, so chaos-injected transport failures are visible.
		rt = &countingTransport{base: rt, m: m}
	}
	return rt
}

// countingTransport observes every client round trip for clientMetrics.
type countingTransport struct {
	base http.RoundTripper
	m    *clientMetrics
}

// RoundTrip implements http.RoundTripper.
func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.m.requests.Inc()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.m.errors.Inc()
		t.m.errKinds.Add(errorKind(err), 1)
		return resp, err
	}
	t.m.status.Add(statusClass(resp.StatusCode), 1)
	if kind := resp.Header.Get(chaos.InjectedHeader); kind != "" {
		t.m.injected.Add(kind, 1)
	}
	return resp, err
}

// errorKind classifies a transport failure by cause, which is what
// makes the chaos reconciliation exact: "blackhole" is the injector's
// client-side DNS window, "bad_url" is a request for a URL with no or
// an unsupported scheme (the browser refuses to navigate to one, so a
// crawl counts none), and "conn" is a killed connection — under chaos,
// exactly the injected resets.
func errorKind(err error) string {
	s := err.Error()
	switch {
	case strings.Contains(s, "blackhole window"):
		return "blackhole"
	case strings.Contains(s, "unsupported protocol scheme"):
		return "bad_url"
	default:
		return "conn"
	}
}

func statusClass(code int) string {
	switch {
	case code < 200:
		return "1xx"
	case code < 300:
		return "2xx"
	case code < 400:
		return "3xx"
	case code < 500:
		return "4xx"
	default:
		return "5xx"
	}
}
