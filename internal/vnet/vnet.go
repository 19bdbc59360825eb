// Package vnet provides the virtual network the simulated web runs on:
// one http.Server serving an arbitrary number of virtual HTTPS hosts,
// plus http.Clients whose transport resolves every hostname to that
// server. All traffic between the crawler's browsers, the push service,
// ad networks, and landing pages crosses a real net/http stack — the
// same http.Transport pool, HTTP/1.1 framing, connection lifecycle and
// fault behaviour as over TCP — but each connection is an in-process
// net.Pipe, so no byte passes through the kernel. Name resolution, TLS
// and the socket layer are virtualized (URLs use the https scheme,
// carried as plaintext HTTP over the pipe).
package vnet

import (
	"context"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"pushadminer/internal/chaos"
	"pushadminer/internal/httpx"
	"pushadminer/internal/telemetry"
)

// Network is a virtual internet. Register hosts with Handle, then create
// clients with Client. Close drains in-flight requests and stops the
// server; dials after Close fail.
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

	server *http.Server
	// base is the single shared Transport all clients dial through; one
	// connection pool per network keeps the number of live connections,
	// and of the goroutines serving them, bounded no matter how many
	// browser containers exist.
	base *http.Transport

	// inflight tracks handler executions so Close can drain them —
	// including hijacked connections, which server.Shutdown does not
	// wait for.
	inflight sync.WaitGroup

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

// wireHost is the one address every request is sent to. Every virtual
// host shares it, so the shared transport keeps one pool under one set
// of limits; the ".invalid" name is reserved (RFC 2606) and never
// resolved, since the transport's dialer ignores it.
const wireHost = "vnet.invalid:80"

// New starts a virtual network: a server with no hosts yet, and the
// shared transport that dials it in process. It opens no socket.
func New() *Network {
	ln := &pipeListener{conns: make(chan net.Conn), closed: make(chan struct{})}
	n := &Network{
		hosts: make(map[string]http.Handler),
		base: &http.Transport{
			DialContext:         ln.dial,
			MaxIdleConns:        128,
			MaxIdleConnsPerHost: 64,
			MaxConnsPerHost:     256,
			IdleConnTimeout:     2 * time.Second,
		},
		reqFamily: telemetry.NewFamily("vnet_requests_by_host", "host"),
	}
	n.server = &http.Server{Handler: http.HandlerFunc(n.dispatch)}
	go n.server.Serve(ln) //nolint:errcheck // Serve returns on Close
	return n
}

// pipeListener is the server's listener: each connection the shared
// transport dials is a net.Pipe, whose far end Accept hands to the
// server. Nothing is buffered; a dial waits for the server to accept.
type pipeListener struct {
	conns     chan net.Conn
	closed    chan struct{}
	closeOnce sync.Once
}

// dial is the transport's DialContext. It fails with net.ErrClosed once
// the listener is closed, or with ctx's error if ctx ends before the
// server accepts.
func (l *pipeListener) dial(ctx context.Context, _, _ string) (net.Conn, error) {
	client, server := net.Pipe()
	select {
	case l.conns <- server:
		return client, nil
	case <-l.closed:
		return nil, net.ErrClosed
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Accept implements net.Listener.
func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

// Close implements net.Listener.
func (l *pipeListener) Close() error {
	l.closeOnce.Do(func() { close(l.closed) })
	return nil
}

// Addr implements net.Listener.
func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return wireHost }

// Close shuts the network down, first draining in-flight requests (with
// a bound, so a wedged handler cannot hang shutdown forever).
func (n *Network) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	done := make(chan struct{})
	go func() {
		n.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
	}
	// The pool can hold a connection that was dialed for a request which
	// then took a connection freed meanwhile. The server has seen no
	// request on it, and Shutdown waits up to 5 s for a new connection's
	// first request, which would stall Close until ctx expires. Closing
	// the pool first ends such connections from the client side.
	n.base.CloseIdleConnections()
	return n.server.Shutdown(ctx)
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

// DisableKeepAlives turns connection reuse off for the shared transport.
// webeco.New calls it, before any traffic, for fault profiles that can
// kill a connection (chaos.Profile.KillsConnections: resets or
// truncation): Go's transport silently retries idempotent requests that
// die on a *reused* connection before the first response byte, which
// would make injected resets unobservable and their effects
// scheduling-dependent. Every other profile keeps the pool. Call it
// before traffic starts.
func (n *Network) DisableKeepAlives() {
	n.base.DisableKeepAlives = true
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

func (n *Network) dispatch(w http.ResponseWriter, r *http.Request) {
	n.inflight.Add(1)
	defer n.inflight.Done()
	host := strings.ToLower(r.Host)
	if i := strings.IndexByte(host, ':'); i >= 0 {
		host = host[:i]
	}
	n.reqFamily.Add(host, 1)
	n.mu.RLock()
	h := n.hosts[host]
	if h == nil {
		h = n.fallback
	}
	mw := n.middleware
	n.mu.RUnlock()
	if h == nil {
		http.Error(w, "vnet: no such host "+host, http.StatusBadGateway)
		return
	}
	if mw != nil {
		h = mw(host, h)
	}
	h.ServeHTTP(w, r)
}

// transport routes every request to the network's server, preserving
// the virtual Host, and downgrades the https scheme to plain HTTP on the
// wire.
type transport struct {
	base *http.Transport
}

// RoundTrip implements http.RoundTripper. The rewrite touches only the
// URL's scheme and host and the request's Host, so the request it sends
// is a shallow copy with its own URL; headers, body and context are
// shared with the caller's request, which is left unchanged.
func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	out := *req
	u := *req.URL
	out.URL = &u
	if u.Scheme == "https" {
		u.Scheme = "http"
	}
	if out.Host == "" {
		out.Host = req.URL.Host
	}
	u.Host = wireHost
	resp, err := t.base.RoundTrip(&out)
	if resp != nil {
		// Restore the virtual URL so callers (and the redirect
		// resolver) see the request they actually made, not the
		// wire rewrite.
		resp.Request = req
	}
	return resp, err
}

// Client returns an http.Client that resolves all hosts through the
// virtual network. Redirects are followed up to the standard limit; use
// ClientNoRedirect to observe redirect chains hop by hop.
func (n *Network) Client() *http.Client {
	return &http.Client{Transport: n.newTransport(), Timeout: 10 * time.Second}
}

// ClientNoRedirect returns a client that does not follow redirects,
// letting callers record each hop of a redirection chain. The client
// carries its own cookie jar: each crawler container is an isolated
// browsing session, which is exactly why the paper ran one Docker
// container per URL — some ad networks track browsers across sessions
// via cookies (§8). The jar is an httpx.MemJar so a container's cookie
// state can be exported and rehydrated on shard failover.
func (n *Network) ClientNoRedirect() *http.Client {
	return &http.Client{
		Transport: n.newTransport(),
		Jar:       httpx.NewMemJar(),
		Timeout:   10 * time.Second,
		CheckRedirect: func(req *http.Request, via []*http.Request) error {
			return http.ErrUseLastResponse
		},
	}
}

func (n *Network) newTransport() http.RoundTripper {
	var rt http.RoundTripper = &transport{base: n.base}
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
