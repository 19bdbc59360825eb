package vnet

import (
	"context"
	"net"
	"net/http"
	"sync"
)

// wire is the oracle the direct dispatch is held to: the path every
// request took before it, a whole HTTP/1.1 exchange inside the process.
// An http.Transport dials a net.Pipe whose far end an http.Server
// accepts, and the server's handler admits each request as dispatch
// does. Keep-alives are always off, so every request gets a fresh
// connection and an injected reset is never retried: Go's transport
// silently retries a request that dies on a reused connection.
type wire struct {
	ln  *pipeListener
	srv *http.Server
	tr  *http.Transport
}

// wireHost is the one address every request is sent to; the ".invalid"
// name is reserved (RFC 2606) and never resolved, since the transport's
// dialer ignores it.
const wireHost = "vnet.invalid:80"

func newWire(n *Network) *wire {
	ln := &pipeListener{conns: make(chan net.Conn), closed: make(chan struct{})}
	w := &wire{ln: ln, tr: &http.Transport{DialContext: ln.dial, DisableKeepAlives: true}}
	w.srv = &http.Server{Handler: http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		h, err := n.admit(r.Host)
		if err != nil {
			panic(http.ErrAbortHandler)
		}
		defer n.inflight.Done()
		h.ServeHTTP(rw, r)
	})}
	go w.srv.Serve(ln) //nolint:errcheck // Serve returns on close
	return w
}

// roundTrip sends req over the wire to the virtual Host, downgrading
// the https scheme to plain HTTP. The rewrite touches a shallow copy
// with its own URL; the response names the caller's request.
func (w *wire) roundTrip(req *http.Request) (*http.Response, error) {
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
	resp, err := w.tr.RoundTrip(&out)
	if resp != nil {
		resp.Request = req
	}
	return resp, err
}

func (w *wire) close() {
	w.tr.CloseIdleConnections()
	w.srv.Close()
}

// pipeListener is the server's listener: each connection the transport
// dials is a net.Pipe, whose far end Accept hands to the server.
type pipeListener struct {
	conns     chan net.Conn
	closed    chan struct{}
	closeOnce sync.Once
}

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

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.closeOnce.Do(func() { close(l.closed) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return wireHost }
