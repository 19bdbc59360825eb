package vnet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pushadminer/internal/chaos"
	"pushadminer/internal/telemetry"
)

// exchange is what a client saw of one request.
type exchange struct {
	Status   int
	Header   http.Header
	Body     string
	ReadErr  string // the error that ended the body, "" at a clean EOF
	Kind     string // errorKind of the round trip's error, "" when none
	noLength bool   // the response declared no Content-Length
}

// parityCase is one row of TestDispatchMatchesWire: handlers, an
// optional fault profile, and the requests one client sends in order.
type parityCase struct {
	name       string
	prof       *chaos.Profile
	fault      string // the chaos_faults kind prof must inject
	noRedirect bool
	setup      func(n *Network)
	reqs       []string // "METHOD URL" or "POST URL BODY"
}

// echo writes back what the handler saw of its request.
func echo(w http.ResponseWriter, r *http.Request) {
	body, _ := io.ReadAll(r.Body)
	fmt.Fprintf(w, "%s host=%s uri=%s url=%s len=%d client=%s body=%s",
		r.Method, r.Host, r.RequestURI, r.URL, r.ContentLength, r.Header.Get(chaos.ClientHeader), body)
}

func serveEcho(n *Network) {
	n.HandleFunc("a.test", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		echo(w, r)
	})
}

// run sends c's requests over direct dispatch, or over the wire oracle,
// on a fresh network, and returns what the client saw and every
// vnet_* and chaos_* count.
func (c parityCase) run(t *testing.T, wire bool) ([]exchange, map[string]int64) {
	t.Helper()
	n := newNet(t)
	if wire {
		UseWire(t, n)
	}
	reg := telemetry.New()
	n.AttachMetrics(reg)
	if c.prof != nil {
		epoch := time.Date(2019, 9, 1, 0, 0, 0, 0, time.UTC)
		in := chaos.NewInjector(*c.prof, func() time.Time { return epoch }, epoch)
		in.AttachMetrics(reg)
		n.SetMiddleware(in.Middleware)
		n.SetTransportWrapper(in.WrapTransport)
	}
	c.setup(n)
	client := n.Client()
	if c.noRedirect {
		client = n.ClientNoRedirect()
	}
	chaos.TagClient(client, "c1")
	var out []exchange
	for _, spec := range c.reqs {
		f := strings.SplitN(spec, " ", 3)
		var body io.Reader
		if len(f) == 3 {
			body = strings.NewReader(f[2])
		}
		req, err := http.NewRequest(f[0], f[1], body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			out = append(out, exchange{Kind: errorKind(err)})
			continue
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		ex := exchange{Status: resp.StatusCode, Header: resp.Header, Body: string(b),
			noLength: resp.ContentLength < 0}
		if err != nil {
			ex.ReadErr = err.Error()
		}
		out = append(out, ex)
	}
	s := reg.Snapshot()
	counts := map[string]int64{}
	for name, v := range s.Counters {
		counts[name] = v
	}
	for name, fam := range s.Families {
		for label, v := range fam {
			counts[name+"{"+label+"}"] = v
		}
	}
	maps.DeleteFunc(counts, func(k string, _ int64) bool {
		return !strings.HasPrefix(k, "vnet_") && !strings.HasPrefix(k, "chaos_")
	})
	return out, counts
}

// TestDispatchMatchesWire holds direct dispatch to the wire it replaced:
// for each row, a fresh network served over each path gives the same
// status, headers, body bytes, body read error and round-trip error
// kind for every request, and the same vnet_* and chaos_* counts.
//
// Two headers are the wire's alone and are dropped from its side: Date
// (the server stamps the wall clock) and Connection (the oracle's
// keep-alives are off, so its server announces close). One difference
// is allowed: where the wire declares no length (http.Server streams a
// body that outgrows its 2 KB buffer, chunked for GET and bare for
// HEAD), dispatch knows the whole body and declares its Content-Length,
// which must equal the length of the body read (checked on the GET
// only, as a HEAD response has none). No client reads a response's
// length.
func TestDispatchMatchesWire(t *testing.T) {
	hundred := strings.Repeat("0123456789", 10)
	faulty := func(p chaos.Profile) *chaos.Profile { p.Seed = 1; return &p }
	serveBody := func(n *Network) {
		n.HandleFunc("a.test", func(w http.ResponseWriter, r *http.Request) {
			io.WriteString(w, hundred) //nolint:errcheck
		})
	}
	window := []chaos.Window{{Dur: time.Hour}}
	cases := []parityCase{
		{name: "get", setup: serveEcho, reqs: []string{"GET https://a.test/p/q?x=1&y=%20z"}},
		{name: "head", setup: serveEcho, reqs: []string{"HEAD https://a.test/h"}},
		{name: "post json", setup: func(n *Network) {
			n.HandleFunc("a.test", func(w http.ResponseWriter, r *http.Request) {
				var v map[string]any
				if err := json.NewDecoder(r.Body).Decode(&v); err != nil {
					http.Error(w, err.Error(), http.StatusBadRequest)
					return
				}
				v["seen"] = r.Method + " " + r.URL.Path
				w.Header().Set("Content-Type", "application/json")
				json.NewEncoder(w).Encode(v) //nolint:errcheck
			})
		}, reqs: []string{`POST https://a.test/sub {"origin":"https://p.test","n":3}`}},
		{name: "no content type", setup: func(n *Network) {
			n.HandleFunc("a.test", func(w http.ResponseWriter, r *http.Request) {
				io.WriteString(w, "<html><body>hi</body></html>") //nolint:errcheck
			})
		}, reqs: []string{"GET https://a.test/"}},
		{name: "body over 2KB", setup: func(n *Network) {
			n.HandleFunc("a.test", func(w http.ResponseWriter, r *http.Request) {
				for i := 0; i < 60; i++ {
					io.WriteString(w, hundred) //nolint:errcheck
				}
			})
		}, reqs: []string{"GET https://a.test/big", "HEAD https://a.test/big"}},
		{name: "204", setup: func(n *Network) {
			n.HandleFunc("a.test", func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("X-Kept", "1")
				w.WriteHeader(http.StatusNoContent)
				w.Header().Set("X-Late", "dropped")
				io.WriteString(w, "refused") //nolint:errcheck
			})
		}, reqs: []string{"GET https://a.test/"}},
		{name: "302 no redirect", noRedirect: true, setup: func(n *Network) {
			n.HandleFunc("a.test", func(w http.ResponseWriter, r *http.Request) {
				http.Redirect(w, r, "https://b.test/land", http.StatusFound)
			})
		}, reqs: []string{"GET https://a.test/go"}},
		{name: "cookie", noRedirect: true, setup: func(n *Network) {
			n.HandleFunc("a.test", func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/set" {
					http.SetCookie(w, &http.Cookie{Name: "uid", Value: "42", Path: "/"})
				}
				c, err := r.Cookie("uid")
				fmt.Fprint(w, c, err)
			})
		}, reqs: []string{"GET https://a.test/set", "GET https://a.test/get"}},
		{name: "unknown host", setup: serveEcho, reqs: []string{"GET https://nowhere.test/"}},
		{name: "fallback", setup: func(n *Network) {
			n.SetFallback(http.HandlerFunc(echo))
		}, reqs: []string{"GET https://anything.test/x"}},
		{name: "reset", prof: faulty(chaos.Profile{ResetFraction: 1}), fault: "reset", setup: serveBody,
			reqs: []string{"GET https://a.test/", "POST https://a.test/ {}"}},
		{name: "503", prof: faulty(chaos.Profile{Error5xxFraction: 1, RetryAfter: 2 * time.Second}), fault: "http_503", setup: serveBody,
			reqs: []string{"GET https://a.test/"}},
		{name: "truncate", prof: faulty(chaos.Profile{TruncateFraction: 1}), fault: "truncate", setup: serveBody,
			reqs: []string{"GET https://a.test/", "POST https://a.test/ {}"}},
		{name: "latency", prof: faulty(chaos.Profile{LatencyFraction: 1, LatencyMin: time.Millisecond, LatencyMax: time.Millisecond}),
			fault: "latency", setup: serveBody, reqs: []string{"GET https://a.test/"}},
		{name: "outage", prof: faulty(chaos.Profile{PushOutages: window, PushHost: "a.test"}), fault: "outage_503", setup: serveBody,
			reqs: []string{"GET https://a.test/"}},
		{name: "blackhole", prof: faulty(chaos.Profile{Blackholes: map[string][]chaos.Window{"a.test": window}}),
			fault: "blackhole", setup: serveBody, reqs: []string{"GET https://a.test/", "GET https://b.test/"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, gotCounts := c.run(t, false)
			want, wantCounts := c.run(t, true)
			for i := range want {
				w, g := want[i], got[i]
				w.Header.Del("Date")
				w.Header.Del("Connection")
				if w.noLength {
					if cl := g.Header.Get("Content-Length"); cl != "" && !strings.HasPrefix(c.reqs[i], "HEAD") && cl != strconv.Itoa(len(g.Body)) {
						t.Errorf("%s: dispatch declared Content-Length %s for a %d-byte body", c.reqs[i], cl, len(g.Body))
					}
					g.Header.Del("Content-Length")
				}
				w.noLength, g.noLength = false, false
				if !reflect.DeepEqual(g, w) {
					t.Errorf("%s:\ndispatch %+v\nwire     %+v", c.reqs[i], g, w)
				}
			}
			if !maps.Equal(gotCounts, wantCounts) {
				t.Errorf("counts:\ndispatch %v\nwire     %v", gotCounts, wantCounts)
			}
			if c.fault != "" && gotCounts["chaos_faults{"+c.fault+"}"] == 0 {
				t.Errorf("no %s fault fired: %v", c.fault, gotCounts)
			}
		})
	}
}

// TestHandlerPanicFailsOneRequest: a panicking handler fails its one
// request with a transport error, as http.Server's recovery killing
// the connection did, and the client counts it as a killed connection.
// http.ErrAbortHandler is net/http's silent abort; any other value is
// logged with its host and path.
func TestHandlerPanicFailsOneRequest(t *testing.T) {
	for _, v := range []any{http.ErrAbortHandler, "boom"} {
		n := newNet(t)
		reg := telemetry.New()
		n.AttachMetrics(reg)
		n.HandleFunc("a.test", func(w http.ResponseWriter, r *http.Request) {
			io.WriteString(w, "partial") //nolint:errcheck
			panic(v)
		})
		resp, err := n.Client().Get("https://a.test/p")
		if err == nil {
			resp.Body.Close()
			t.Fatalf("panic(%v): GET succeeded: %s", v, resp.Status)
		}
		s := reg.Snapshot()
		if got := s.Families["vnet_client_errors"]; len(got) != 1 || got["conn"] != 1 {
			t.Errorf("panic(%v): vnet_client_errors = %v, want conn:1", v, got)
		}
		if got := s.Counters["vnet_client_requests"]; got != 1 {
			t.Errorf("panic(%v): vnet_client_requests = %d, want 1", v, got)
		}
	}
}

// TestRequestAfterCloseFails: once Close has begun no request starts;
// each fails with an error wrapping net.ErrClosed, and its handler
// never runs. Requests racing Close either complete or fail that way,
// and none is served after Close returns.
func TestRequestAfterCloseFails(t *testing.T) {
	n := New()
	ran := false
	n.HandleFunc("a.test", func(w http.ResponseWriter, r *http.Request) { ran = true })
	c := n.Client()
	n.Close()
	for _, url := range []string{"https://a.test/", "https://nowhere.test/"} {
		resp, err := c.Post(url, "text/plain", bytes.NewReader([]byte("x")))
		if err == nil {
			resp.Body.Close()
			t.Fatalf("%s after Close: %s", url, resp.Status)
		}
		if !errors.Is(err, net.ErrClosed) {
			t.Errorf("%s after Close: %v, want an error wrapping net.ErrClosed", url, err)
		}
	}
	if ran {
		t.Error("a handler ran after Close")
	}
	if got := n.RequestCounts(); len(got) != 0 {
		t.Errorf("requests after Close were counted: %v", got)
	}

	n = New()
	var served atomic.Int64
	n.HandleFunc("a.test", func(w http.ResponseWriter, r *http.Request) { served.Add(1) })
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := n.Client()
			for {
				resp, err := c.Get("https://a.test/")
				if err != nil {
					if !errors.Is(err, net.ErrClosed) {
						t.Errorf("request racing Close: %v, want an error wrapping net.ErrClosed", err)
					}
					return
				}
				resp.Body.Close()
			}
		}()
	}
	for served.Load() < 20 {
		runtime.Gosched()
	}
	n.Close()
	closed := served.Load()
	wg.Wait()
	if got := served.Load(); got != closed {
		t.Errorf("%d requests were served after Close returned", got-closed)
	}
}
