package vnet

import (
	"fmt"
	"io"
	"net/http"
	"reflect"
	"sync"
	"testing"
)

func newNet(t *testing.T) *Network {
	t.Helper()
	n := New()
	t.Cleanup(func() { n.Close() })
	return n
}

func get(t *testing.T, c *http.Client, url string) (*http.Response, string) {
	t.Helper()
	resp, err := c.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, string(body)
}

func TestVirtualHosts(t *testing.T) {
	n := newNet(t)
	n.HandleFunc("a.test", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "site A")
	})
	n.HandleFunc("b.test", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "site B")
	})
	c := n.Client()
	if _, body := get(t, c, "https://a.test/"); body != "site A" {
		t.Errorf("a.test body = %q", body)
	}
	if _, body := get(t, c, "https://b.test/"); body != "site B" {
		t.Errorf("b.test body = %q", body)
	}
}

func TestUnknownHost502(t *testing.T) {
	n := newNet(t)
	resp, _ := get(t, n.Client(), "https://nope.test/")
	if resp.StatusCode != http.StatusBadGateway {
		t.Errorf("status = %d, want 502", resp.StatusCode)
	}
}

func TestFallback(t *testing.T) {
	n := newNet(t)
	n.SetFallback(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "fallback for ", r.Host)
	}))
	resp, body := get(t, n.Client(), "https://anything.test/")
	if resp.StatusCode != 200 || body != "fallback for anything.test" {
		t.Errorf("fallback: %d %q", resp.StatusCode, body)
	}
}

func TestHTTPSchemePreservedInHandler(t *testing.T) {
	n := newNet(t)
	var gotHost, gotPath string
	n.HandleFunc("site.test", func(w http.ResponseWriter, r *http.Request) {
		gotHost, gotPath = r.Host, r.URL.Path
	})
	get(t, n.Client(), "https://site.test/some/path?q=1")
	if gotHost != "site.test" {
		t.Errorf("handler saw Host %q", gotHost)
	}
	if gotPath != "/some/path" {
		t.Errorf("handler saw path %q", gotPath)
	}
}

func TestRedirectFollowing(t *testing.T) {
	n := newNet(t)
	n.HandleFunc("hop1.test", func(w http.ResponseWriter, r *http.Request) {
		http.Redirect(w, r, "https://hop2.test/land", http.StatusFound)
	})
	n.HandleFunc("hop2.test", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "landed")
	})
	resp, body := get(t, n.Client(), "https://hop1.test/start")
	if body != "landed" {
		t.Errorf("body = %q", body)
	}
	if got := resp.Request.URL.Host; got != "hop2.test" {
		t.Errorf("final host = %q", got)
	}
}

func TestClientNoRedirect(t *testing.T) {
	n := newNet(t)
	n.HandleFunc("hop1.test", func(w http.ResponseWriter, r *http.Request) {
		http.Redirect(w, r, "https://hop2.test/land", http.StatusMovedPermanently)
	})
	resp, _ := get(t, n.ClientNoRedirect(), "https://hop1.test/x")
	if resp.StatusCode != http.StatusMovedPermanently {
		t.Errorf("status = %d, want 301", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "https://hop2.test/land" {
		t.Errorf("Location = %q", loc)
	}
}

func TestRequestCount(t *testing.T) {
	n := newNet(t)
	n.HandleFunc("counted.test", func(w http.ResponseWriter, r *http.Request) {})
	c := n.Client()
	for i := 0; i < 3; i++ {
		get(t, c, "https://counted.test/")
	}
	if got := n.RequestCount("counted.test"); got != 3 {
		t.Errorf("RequestCount = %d, want 3", got)
	}
	if got := n.RequestCount("never.test"); got != 0 {
		t.Errorf("RequestCount(never) = %d", got)
	}
}

func TestHostsSorted(t *testing.T) {
	n := newNet(t)
	n.HandleFunc("z.test", func(http.ResponseWriter, *http.Request) {})
	n.HandleFunc("a.test", func(http.ResponseWriter, *http.Request) {})
	if got := n.Hosts(); !reflect.DeepEqual(got, []string{"a.test", "z.test"}) {
		t.Errorf("Hosts = %v", got)
	}
}

func TestConcurrentClients(t *testing.T) {
	n := newNet(t)
	n.HandleFunc("busy.test", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, r.URL.Query().Get("i"))
	})
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := n.Client()
			resp, err := c.Get(fmt.Sprintf("https://busy.test/?i=%d", i))
			if err != nil {
				t.Errorf("GET: %v", err)
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if string(body) != fmt.Sprint(i) {
				t.Errorf("got %q want %d", body, i)
			}
		}(i)
	}
	wg.Wait()
}

func TestHostCaseAndPortInsensitive(t *testing.T) {
	n := newNet(t)
	n.HandleFunc("mixed.test", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "ok")
	})
	if _, body := get(t, n.Client(), "https://MIXED.test/"); body != "ok" {
		t.Errorf("case-insensitive dispatch failed: %q", body)
	}
}

// TestRoundTripLeavesRequestAlone checks that dispatch builds the
// handler's request as a copy, not from the caller's: after a round
// trip through a Client's transport the caller's URL, Host and Header
// are as built, resp.Request is the caller's request, and the handler
// still saw the virtual host and the header. It calls the transport
// directly, so nothing in http.Client stands between the two.
func TestRoundTripLeavesRequestAlone(t *testing.T) {
	n := newNet(t)
	var sawHost, sawProbe string
	n.HandleFunc("a.test", func(w http.ResponseWriter, r *http.Request) {
		sawHost, sawProbe = r.Host, r.Header.Get("X-Probe")
		fmt.Fprint(w, "ok")
	})
	rt := n.Client().Transport
	for _, host := range []string{"a.test", ""} {
		req, err := http.NewRequest(http.MethodGet, "https://a.test/p/q?x=1", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Host = host
		req.Header.Set("X-Probe", "v")
		wantURL, wantHeader := *req.URL, req.Header.Clone()
		resp, err := rt.RoundTrip(req)
		if err != nil {
			t.Fatalf("Host %q: %v", host, err)
		}
		resp.Body.Close()
		if *req.URL != wantURL {
			t.Errorf("Host %q: caller's URL became %v, want %v", host, req.URL, &wantURL)
		}
		if req.Host != host {
			t.Errorf("caller's Host became %q, want %q", req.Host, host)
		}
		if !reflect.DeepEqual(req.Header, wantHeader) {
			t.Errorf("Host %q: caller's Header became %v, want %v", host, req.Header, wantHeader)
		}
		if resp.Request != req {
			t.Errorf("Host %q: resp.Request is not the caller's request", host)
		}
		if sawHost != "a.test" || sawProbe != "v" {
			t.Errorf("Host %q: handler saw Host %q, X-Probe %q", host, sawHost, sawProbe)
		}
	}
}
