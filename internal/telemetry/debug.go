package telemetry

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// Live-introspection status, keyed by name: "fleet" is served at
// /fleetz, "mining" at /miningz, each wrapped in a JSON envelope under
// its name. The owning subsystem registers a Publisher when its run
// starts; telemetry stays a leaf package and only knows it gets
// *something* JSON-marshalable back — or a fmt.Stringer for the text
// rendering.
var (
	statusMu  sync.RWMutex
	statusFns = map[string]func() any{}
)

// Publisher hands immutable snapshots of a run's live status to the
// debug server. The run builds a fresh *T for every Publish and never
// mutates it afterwards, because readers load it concurrently.
type Publisher[T any] struct {
	cur atomic.Pointer[T]
}

// NewPublisher returns a publisher registered under name. The latest
// registration wins (desktop fleet, then mobile fleet; one mining run
// after another), like expvar republication.
func NewPublisher[T any](name string) *Publisher[T] {
	p := &Publisher[T]{}
	statusMu.Lock()
	statusFns[name] = p.status
	statusMu.Unlock()
	return p
}

// Publish makes s the current snapshot.
func (p *Publisher[T]) Publish(s *T) { p.cur.Store(s) }

// status returns the current snapshot as an untyped nil before the
// first Publish, so the endpoint answers {"active": false} rather than
// marshaling a typed nil pointer.
func (p *Publisher[T]) status() any {
	if s := p.cur.Load(); s != nil {
		return s
	}
	return nil
}

// Status returns the latest snapshot published under name, or nil when
// no publisher is registered or it has not published yet.
func Status(name string) any {
	statusMu.RLock()
	fn := statusFns[name]
	statusMu.RUnlock()
	if fn == nil {
		return nil
	}
	return fn()
}

// statusHandler serves the snapshot published under name: JSON by
// default (wrapped in an {"active": true, "<name>": ...} envelope), the
// snapshot's fmt.Stringer rendering with ?format=text.
func statusHandler(name string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		payload := Status(name)
		if payload == nil {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintln(w, `{"active": false}`)
			return
		}
		if r.URL.Query().Get("format") == "text" {
			if str, ok := payload.(fmt.Stringer); ok {
				w.Header().Set("Content-Type", "text/plain; charset=utf-8")
				fmt.Fprint(w, str.String())
				return
			}
		}
		w.Header().Set("Content-Type", "application/json")
		b, err := json.MarshalIndent(map[string]any{
			"active": true,
			name:     payload,
		}, "", "  ")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Write(append(b, '\n')) //nolint:errcheck // best-effort debug endpoint
	}
}

// DebugServer is the optional runtime-profiling endpoint behind the
// -debug-addr flag: net/http/pprof, /debug/vars (expvar), and /metrics
// (the registry snapshot) on a loopback listener.
type DebugServer struct {
	addr string
	ln   net.Listener
	srv  *http.Server
}

// ServeDebug starts the debug HTTP server on addr (e.g.
// "127.0.0.1:6060"; ":0" picks a free port). The registry may be nil,
// in which case /metrics serves an empty snapshot. The server runs
// until Close.
func ServeDebug(addr string, reg *Registry) (*DebugServer, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/fleetz", statusHandler("fleet"))
	mux.HandleFunc("/miningz", statusHandler("mining"))
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := reg.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: debug listen %s: %w", addr, err)
	}
	ds := &DebugServer{
		addr: ln.Addr().String(),
		ln:   ln,
		srv:  &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
	}
	go ds.srv.Serve(ln) //nolint:errcheck // Serve always returns on Close
	return ds, nil
}

// Addr returns the bound listen address.
func (d *DebugServer) Addr() string {
	if d == nil {
		return ""
	}
	return d.addr
}

// Close shuts the server down. Nil-safe.
func (d *DebugServer) Close() error {
	if d == nil {
		return nil
	}
	return d.srv.Close()
}
