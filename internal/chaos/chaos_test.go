package chaos

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

var epoch = time.Date(2019, 9, 1, 0, 0, 0, 0, time.UTC)

func fixedNow(t time.Time) func() time.Time { return func() time.Time { return t } }

// wrap serves an injector-wrapped handler over a real HTTP server so
// faults exercise an actual client connection (resets, truncation).
func wrap(t *testing.T, in *Injector, host string, h http.Handler) (*httptest.Server, *http.Client) {
	t.Helper()
	srv := httptest.NewServer(in.Middleware(host, h))
	t.Cleanup(srv.Close)
	client := srv.Client()
	client.Transport = &taggingTransport{id: "test-client", base: client.Transport}
	return srv, client
}

func okHandler(body string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, body)
	})
}

func TestDrawsDeterministicPerSeed(t *testing.T) {
	mk := func(seed int64) []bool {
		in := NewInjector(Profile{Seed: seed, ResetFraction: 0.3}, fixedNow(epoch), epoch)
		var out []bool
		for i := 0; i < 200; i++ {
			key := fmt.Sprintf("c|h|GET|/p%d", i%7)
			out = append(out, in.draw("reset", key, in.nextAttempt(key), 0.3))
		}
		return out
	}
	a, b := mk(42), mk(42)
	hits := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs between same-seed injectors", i)
		}
		if a[i] {
			hits++
		}
	}
	if hits == 0 || hits == len(a) {
		t.Fatalf("degenerate draw distribution: %d/%d", hits, len(a))
	}
	c := mk(43)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical draw sequences")
	}
}

func TestRequestKeySeparatesTokenPaths(t *testing.T) {
	mkReq := func(path string) *http.Request {
		r := httptest.NewRequest(http.MethodGet, "http://push.test"+path, nil)
		r.Header.Set(ClientHeader, "c1")
		return r
	}
	// Per-token send paths keep separate attempt counters so the draw
	// sequence each token's deliveries see does not depend on how sends
	// to *other* tokens interleave — what lets the push scheduler flush
	// endpoints concurrently without perturbing fault injection. (Safe
	// because tokens are minted from registration identity, not arrival
	// order.)
	a := requestKey(mkReq("/send/tok-000123"), "push.test")
	b := requestKey(mkReq("/send/tok-999999"), "push.test")
	if a == b {
		t.Fatalf("distinct token paths must not share a key: %q", a)
	}
	c := requestKey(mkReq("/poll"), "push.test")
	if a == c {
		t.Fatal("different endpoints share a key")
	}
}

func TestInjected503CarriesRetryAfter(t *testing.T) {
	in := NewInjector(Profile{Seed: 1, Error5xxFraction: 1, RetryAfter: 30 * time.Second},
		fixedNow(epoch), epoch)
	srv, client := wrap(t, in, "site.test", okHandler("hi"))
	resp, err := client.Get(srv.URL + "/page")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "30" {
		t.Fatalf("Retry-After = %q, want 30", got)
	}
	if in.Stats()["http_503"] != 1 {
		t.Fatalf("stats = %v", in.Stats())
	}
}

func TestResetDropsConnection(t *testing.T) {
	in := NewInjector(Profile{Seed: 1, ResetFraction: 1}, fixedNow(epoch), epoch)
	srv, client := wrap(t, in, "site.test", okHandler("hi"))
	if _, err := client.Get(srv.URL + "/page"); err == nil {
		t.Fatal("reset request succeeded")
	}
	if in.Stats()["reset"] != 1 {
		t.Fatalf("stats = %v", in.Stats())
	}
}

func TestTruncationCutsGETBodies(t *testing.T) {
	in := NewInjector(Profile{Seed: 1, TruncateFraction: 1}, fixedNow(epoch), epoch)
	body := strings.Repeat("x", 4096)
	srv, client := wrap(t, in, "site.test", okHandler(body))
	resp, err := client.Get(srv.URL + "/page")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err == nil {
		t.Fatalf("read %d bytes with no error; want unexpected EOF", len(got))
	}
	if len(got) >= len(body) {
		t.Fatal("body not truncated")
	}

	// POSTs must never be truncated: the side effect already happened.
	resp, err = client.Post(srv.URL+"/page", "text/plain", strings.NewReader("q"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got, _ := io.ReadAll(resp.Body); string(got) != body {
		t.Fatalf("POST response truncated to %d bytes", len(got))
	}
}

func TestPushOutageWindow(t *testing.T) {
	now := epoch
	in := NewInjector(Profile{
		Seed:        1,
		PushHost:    "push.test",
		PushOutages: []Window{{Start: 72 * time.Hour, Dur: 24 * time.Hour}},
	}, func() time.Time { return now }, epoch)
	srv, client := wrap(t, in, "push.test", okHandler("ok"))

	get := func() int {
		resp, err := client.Get(srv.URL + "/poll/tok-1")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		return resp.StatusCode
	}
	if got := get(); got != http.StatusOK {
		t.Fatalf("pre-outage status = %d", got)
	}
	now = epoch.Add(80 * time.Hour) // inside the window
	if got := get(); got != http.StatusServiceUnavailable {
		t.Fatalf("in-outage status = %d, want 503", got)
	}
	now = epoch.Add(97 * time.Hour) // after the window
	if got := get(); got != http.StatusOK {
		t.Fatalf("post-outage status = %d", got)
	}
	if in.Stats()["outage_503"] != 1 {
		t.Fatalf("stats = %v", in.Stats())
	}
}

func TestBlackholeTransport(t *testing.T) {
	now := epoch.Add(10 * time.Hour)
	in := NewInjector(Profile{
		Seed:       1,
		Blackholes: map[string][]Window{"cdn.test": {{Start: 8 * time.Hour, Dur: 4 * time.Hour}}},
	}, func() time.Time { return now }, epoch)

	inner := roundTripFunc(func(r *http.Request) (*http.Response, error) {
		return &http.Response{StatusCode: 200, Body: http.NoBody}, nil
	})
	rt := in.WrapTransport(inner)

	req := httptest.NewRequest(http.MethodGet, "http://cdn.test/sw.js", nil)
	if _, err := rt.RoundTrip(req); err == nil || !strings.Contains(err.Error(), "no such host") {
		t.Fatalf("blackholed request err = %v", err)
	}
	req = httptest.NewRequest(http.MethodGet, "http://other.test/", nil)
	if _, err := rt.RoundTrip(req); err != nil {
		t.Fatalf("non-blackholed host failed: %v", err)
	}
	now = epoch.Add(13 * time.Hour)
	req = httptest.NewRequest(http.MethodGet, "http://cdn.test/sw.js", nil)
	if _, err := rt.RoundTrip(req); err != nil {
		t.Fatalf("post-window request failed: %v", err)
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

func TestShouldCrashContainerDeterministic(t *testing.T) {
	mk := func() []bool {
		in := NewInjector(Profile{Seed: 9, ContainerCrashFraction: 0.2}, fixedNow(epoch), epoch)
		var out []bool
		for i := 0; i < 100; i++ {
			out = append(out, in.ShouldCrashContainer(fmt.Sprintf("site-%d#desktop", i), 1+i%5))
		}
		return out
	}
	a, b := mk(), mk()
	crashes := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("crash plan %d not deterministic", i)
		}
		if a[i] {
			crashes++
		}
	}
	if crashes == 0 || crashes > 50 {
		t.Fatalf("crash count %d implausible for fraction 0.2 over 100 draws", crashes)
	}
}

func TestOnlyRestrictsFaultHosts(t *testing.T) {
	in := NewInjector(Profile{Seed: 1, Error5xxFraction: 1, Only: []string{"push.test"}},
		fixedNow(epoch), epoch)
	srv, client := wrap(t, in, "site.test", okHandler("ok"))
	resp, err := client.Get(srv.URL + "/page")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("host outside Only list got faults (status %d)", resp.StatusCode)
	}
}

func TestTagClientStampsHeader(t *testing.T) {
	var got, other string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = r.Header.Get(ClientHeader)
		other = r.Header.Get("X-Caller")
	}))
	defer srv.Close()
	c := TagClient(srv.Client(), "seed.example#desktop")
	req, err := http.NewRequest(http.MethodGet, srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Caller", "kept")
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got != "seed.example#desktop" || other != "kept" {
		t.Fatalf("server saw %s=%q, X-Caller=%q", ClientHeader, got, other)
	}
	// The stamp goes on the request sent, never on the caller's.
	if v, ok := req.Header[ClientHeader]; ok {
		t.Fatalf("caller's header map carries %s=%q", ClientHeader, v)
	}
}

func TestParseProfile(t *testing.T) {
	if p, err := ParseProfile("none"); err != nil || p != nil {
		t.Fatalf("none: p=%v err=%v", p, err)
	}
	if p, err := ParseProfile(""); err != nil || p != nil {
		t.Fatalf("empty: p=%v err=%v", p, err)
	}
	p, err := ParseProfile("acceptance,seed=7,resets=0.08,blackhole=cdn.test:24h:6h")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 7 || p.ResetFraction != 0.08 || p.Error5xxFraction != 0.10 {
		t.Fatalf("parsed profile %+v", p)
	}
	if len(p.PushOutages) != 1 || p.PushOutages[0] != (Window{Start: 72 * time.Hour, Dur: 24 * time.Hour}) {
		t.Fatalf("outages %+v", p.PushOutages)
	}
	if ws := p.Blackholes["cdn.test"]; len(ws) != 1 || ws[0] != (Window{Start: 24 * time.Hour, Dur: 6 * time.Hour}) {
		t.Fatalf("blackholes %+v", p.Blackholes)
	}
	if !p.Enabled() {
		t.Fatal("parsed profile reports disabled")
	}
	for _, bad := range []string{"nosuchpreset", "resets=2", "outage=banana", "blackhole=hostonly", "workercrashes=0.05"} {
		if _, err := ParseProfile(bad); err == nil {
			t.Errorf("ParseProfile(%q) accepted", bad)
		}
	}
}

// TestKillsConnections: the predicate that decides whether a profile
// may share pooled connections is true exactly when resets or
// truncation are on — the only faults that end a connection.
func TestKillsConnections(t *testing.T) {
	preset := func(name string) Profile {
		p, ok := Preset(name)
		if !ok {
			t.Fatalf("preset %q missing", name)
		}
		return p
	}
	for _, tc := range []struct {
		name string
		prof Profile
		want bool
	}{
		{"zero", Profile{}, false},
		{"mild", preset("mild"), true},
		{"acceptance", preset("acceptance"), true},
		{"harsh", preset("harsh"), true},
		{"resets", Profile{ResetFraction: 0.01}, true},
		{"truncate", Profile{TruncateFraction: 0.01}, true},
		{"latency", Profile{LatencyFraction: 1, LatencyMin: time.Millisecond, LatencyMax: time.Millisecond}, false},
		{"errors", Profile{Error5xxFraction: 0.1, RetryAfter: time.Second}, false},
		{"outage", Profile{PushOutages: []Window{{Start: time.Hour, Dur: time.Hour}}}, false},
		{"blackhole", Profile{Blackholes: map[string][]Window{"cdn.test": {{Dur: time.Hour}}}}, false},
		{"crashes", Profile{ContainerCrashFraction: 0.05}, false},
	} {
		if got := tc.prof.KillsConnections(); got != tc.want {
			t.Errorf("%s: KillsConnections() = %v, want %v", tc.name, got, tc.want)
		}
	}
}
